#pragma once
// Campaign runner: expand a ScenarioSpec into PolicyConfig x workload x seed
// cells, dedupe them (the one dedupe layer: each unique cell is simulated
// once), shard the simulations through ExperimentRunner on the global pool,
// aggregate replicate seeds into mean + bootstrap confidence intervals, and
// write a structured results store (CSV rows per cell, JSON summary per
// aggregate) suitable for tools/summarize_benches.py-style diffing.
//
// Determinism contract: cell order, simulation results, aggregates and both
// writers are byte-identical for every parallelism level — each cell's
// simulation owns all its mutable state and everything after the sweep is
// serial. The same contract extends across crashes: with a journal enabled,
// a killed campaign resumed with CampaignOptions::resume restores finished
// cells bit-exactly from journal.jsonl (see scenario/journal.hpp) and the
// final cells.csv / summary.json are byte-identical to an uninterrupted run.
//
// Robustness contract: cells are fault-isolated. A cell that throws, times
// out (cell_timeout) or is cancelled (a tripped CampaignOptions::stop, e.g.
// SIGINT or a wall budget) becomes a status row in the results store instead
// of aborting the campaign; `keep_going = false` stops scheduling further
// cells after the first failure but still reports everything attempted.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "scenario/journal.hpp"
#include "scenario/spec.hpp"
#include "util/stats.hpp"
#include "util/stop_token.hpp"
#include "workload/swf.hpp"

namespace psched::scenario {

/// One simulation of the expanded grid. `index` is the position in
/// deterministic expansion order (seed-major, then policy name, then grid
/// axes); duplicates collapsed by `key` never make it into the plan.
struct CampaignCell {
  std::size_t index = 0;
  std::uint64_t seed = 0;       ///< workload seed (Ross) / the single SWF slot
  double decay = 0.9;           ///< engine fairshare decay for this cell
  PolicyConfig policy;
  std::string name;  ///< display name, + [heavy_user_factor=F] off the default
  std::string key;              ///< seed|decay|wcl|PolicyConfig::canonical_key()
};

struct CampaignPlan {
  std::vector<CampaignCell> cells;   ///< deduped, expansion order
  std::size_t expanded_cells = 0;    ///< before canonical-key dedup
  std::vector<std::uint64_t> seeds;  ///< effective seed list
};

/// Expand the grid: for every seed, every named policy, every combination of
/// grid-axis overrides (axes in declaration order, later axes fastest).
/// Overridden configs drop their preset display name (so names re-derive)
/// and knobs irrelevant to a cell's policy kind are normalized to defaults
/// before keying — a starvation-delay axis crossed over `cons.nomax` yields
/// ONE cell, not one per delay value.
CampaignPlan expand_campaign(const ScenarioSpec& spec);

/// The outcome of one cell: metrics when Ok, an error detail otherwise.
/// Pending cells were never attempted (the campaign stopped first).
struct CellResult {
  CampaignCell cell;
  CellStatus status = CellStatus::Pending;
  std::vector<double> metrics;  ///< spec.metrics order; Ok cells only
  std::string error;            ///< failure/timeout/cancellation detail
  bool restored = false;        ///< replayed from the journal, not simulated
  /// Per-cell observability, collected only while obs tracing is armed
  /// (CampaignResult::breakdown_enabled). Never feeds metrics or aggregates —
  /// the result rows stay byte-identical traced vs untraced.
  struct Breakdown {
    bool collected = false;      ///< this cell ran while obs was armed
    double wall_seconds = 0.0;   ///< lane wall time (errors included)
    std::uint64_t events_delivered = 0;
    std::uint64_t scheduler_invocations = 0;
    double sim_makespan_seconds = 0.0;
    std::uint64_t fst_forks = 0;
    std::uint64_t fst_drained = 0;
    std::uint64_t fst_resolved_from_master = 0;
    std::uint64_t fst_peak_batch_bytes = 0;
  };
  Breakdown breakdown;
};

/// One policy cell aggregated across the replicate seeds.
struct AggregateResult {
  std::string policy;   ///< the cells' name (CampaignCell::name)
  double decay = 0.9;
  std::size_t replicates = 0;
  std::vector<util::BootstrapCi> metrics;  ///< spec.metrics order
};

struct CampaignResult {
  ScenarioSpec spec;
  CampaignPlan plan;
  std::vector<CellResult> cells;          ///< expansion order
  /// Aggregates over the Ok cells only (a failed replicate simply drops out
  /// of its aggregate; an aggregate with no Ok cell is omitted).
  std::vector<AggregateResult> aggregates;
  /// Full per-cell reports (for figure-style tables); parallel to cells.
  /// Only meaningful when `reports_complete` — restored cells carry their
  /// journaled metrics but no report, and non-Ok cells have none. `policy`
  /// is the cell's name, + [decay=D] under a decay axis of several values.
  std::vector<metrics::PolicyReport> reports;
  bool reports_complete = false;
  /// True when the campaign-wide stop tripped (signal / wall budget) before
  /// every cell finished; pending/cancelled rows explain which cells.
  bool interrupted = false;
  std::size_t simulated_cells = 0;  ///< cells run in this process
  std::size_t restored_cells = 0;   ///< cells replayed from the journal
  std::size_t replayed_records = 0; ///< journal cell records read on resume
  /// True when the journal could not be opened or appended to: the campaign
  /// ran to completion anyway (degraded, not failed), summary.json carries
  /// `"journal": "degraded"`, and a later --resume re-simulates whatever
  /// went unjournaled. Results-store writes are never degraded — they throw.
  bool journal_degraded = false;
  std::string journal_error;  ///< first journal failure, when degraded
  /// True when obs tracing was armed while the campaign ran: cell breakdowns
  /// were collected and write_summary_json emits its "breakdown" section (a
  /// strippable block — see docs/observability.md).
  bool breakdown_enabled = false;
  /// Per-seed trace shape, for banners: jobs and machine size.
  struct TraceInfo {
    std::uint64_t seed = 0;
    std::size_t jobs = 0;
    NodeCount system_size = 0;
  };
  std::vector<TraceInfo> traces;
  /// SWF source only: what ingestion dropped and how the machine was sized.
  std::optional<workload::SwfReadResult> swf_info;

  std::size_t count(CellStatus status) const;
};

/// Kept only for source compatibility with callers that still name the
/// reader; there is one SWF reader and build_workload ignores this.
enum class SwfReaderKind { Streaming };

struct CampaignOptions {
  /// Concurrent simulations per policy sweep: 0 = global pool size,
  /// 1 = serial. Results identical either way.
  std::size_t jobs = 0;
  /// Path of the append-only journal (journal.jsonl in the results dir).
  /// Empty disables journaling (and therefore resume). A fresh run truncates
  /// any stale journal at this path.
  std::string journal_path;
  /// Replay `journal_path` before running: cells journaled Ok are restored
  /// without simulating, failed/timed-out/cancelled cells re-run. Throws if
  /// the journal is missing or was written by a different spec.
  bool resume = false;
  /// false: stop scheduling new cells after the first failed cell (cells
  /// already in flight still finish and are reported).
  bool keep_going = true;
  /// Per-cell wall-clock budget in seconds (0 = none). A cell exceeding it
  /// is cancelled at its next event boundary and becomes a `timeout` row.
  double cell_timeout = 0.0;
  /// Campaign-wide stop (SIGINT/SIGTERM, wall budget). Once tripped, no new
  /// cells start, in-flight cells cancel at their next event boundary, and
  /// the result is marked `interrupted`.
  util::StopToken stop;
};

/// Build the workload a spec describes for one replicate seed: the one trace
/// builder behind campaigns, `psched_campaign --write-swf` and the figure
/// binaries, so they all replay the same bytes. An SWF source takes `head` inside the scan and
/// fills `swf_info` (when given) with the ingest counters and sizing.
Workload build_workload(const WorkloadSpec& spec, std::uint64_t seed,
                        workload::SwfReadResult* swf_info = nullptr,
                        SwfReaderKind = SwfReaderKind::Streaming);

/// Run the whole campaign. Throws on unresolvable specs, journal corruption
/// or resume mismatches; per-cell simulation failures do NOT throw — they
/// become status rows in the returned result (fault isolation).
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options = {});

/// Results store: one CSV row per cell
/// ("index,seed,decay,wcl_enforcement,policy,status,<metric>.."; non-Ok rows
/// leave the metric fields empty) and a JSON summary of the aggregates plus
/// per-status cell counts and a cell_errors array. Both deterministic in the
/// result, and both independent of how cells were obtained (simulated vs
/// restored) so resumed runs diff clean against uninterrupted ones.
void write_cells_csv(const CampaignResult& result, std::ostream& out);
void write_summary_json(const CampaignResult& result, std::ostream& out);

}  // namespace psched::scenario
