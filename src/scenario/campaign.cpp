#include "scenario/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "metrics/fst.hpp"
#include "metrics/selection.hpp"
#include "obs/obs.hpp"
#include "sim/experiment.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/transform.hpp"

namespace psched::scenario {

namespace {

/// Reset knobs the cell's policy kind never reads to their defaults, so two
/// grid cells that would simulate identically share one canonical key. The
/// simulation is unchanged: make_scheduler forwards these values but the
/// schedulers only consult them behind the corresponding kind/flag.
PolicyConfig normalize_irrelevant_knobs(PolicyConfig config) {
  if (config.kind != PolicyKind::Cplant) {
    config.starvation_delay = hours(24);
    config.bar_heavy_users = false;
    config.heavy_user_factor = 4.0;
  } else {
    if (config.starvation_delay == kNoTime) config.bar_heavy_users = false;
    if (!config.bar_heavy_users) config.heavy_user_factor = 4.0;
  }
  if (config.kind != PolicyKind::Depth) config.reservation_depth = 4;
  return config;
}

std::string cell_key(const CampaignCell& cell, sim::WclEnforcement wcl) {
  std::ostringstream key;
  key << "seed=" << cell.seed << "|decay=" << std::hexfloat << cell.decay << std::defaultfloat
      << "|wcl=" << static_cast<int>(wcl) << '|' << cell.policy.canonical_key();
  return key.str();
}

/// Journal identity of a cell: the in-plan key prefixed with a fingerprint
/// of everything *outside* the key that shapes the cell's numbers — the
/// workload content, the FST tolerance and the metric set. Content-addressed,
/// so a journal can never hand a result to a cell it was not computed for.
std::string persistent_cell_key(std::uint64_t workload_fp, const ScenarioSpec& spec,
                                const CampaignCell& cell) {
  util::Fnv1a env;
  env.mix(workload_fp);
  env.mix(spec.tolerance);
  env.mix(spec.metrics.size());
  for (const std::string& metric : spec.metrics) env.mix(std::string_view(metric));
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "env=%016llx|",
                static_cast<unsigned long long>(env.digest()));
  return prefix + cell.key;
}

const char* wcl_name(sim::WclEnforcement wcl) {
  switch (wcl) {
    case sim::WclEnforcement::Never: return "never";
    case sim::WclEnforcement::KillIfNeeded: return "kill_if_needed";
    case sim::WclEnforcement::Always: return "always";
  }
  return "?";
}

}  // namespace

std::size_t CampaignResult::count(CellStatus status) const {
  std::size_t n = 0;
  for (const CellResult& cell : cells)
    if (cell.status == status) ++n;
  return n;
}

CampaignPlan expand_campaign(const ScenarioSpec& spec) {
  CampaignPlan plan;
  plan.seeds = spec.effective_seeds();

  // Axis helpers: iterate the override list, or a single "leave it" slot.
  const auto axis_size = [](std::size_t n) { return std::max<std::size_t>(1, n); };
  const PolicyGrid& grid = spec.grid;

  std::set<std::string> seen_keys;
  for (const std::uint64_t seed : plan.seeds) {
    for (const std::string& name : spec.policy_names) {
      const PolicyConfig base = *policy_from_name(name);
      for (std::size_t a = 0; a < axis_size(grid.starvation_delay.size()); ++a)
        for (std::size_t b = 0; b < axis_size(grid.bar_heavy_users.size()); ++b)
          for (std::size_t c = 0; c < axis_size(grid.heavy_user_factor.size()); ++c)
            for (std::size_t d = 0; d < axis_size(grid.max_runtime.size()); ++d)
              for (std::size_t e = 0; e < axis_size(grid.reservation_depth.size()); ++e)
                for (std::size_t f = 0; f < axis_size(grid.decay.size()); ++f) {
                  ++plan.expanded_cells;
                  CampaignCell cell;
                  cell.seed = seed;
                  cell.decay = grid.decay.empty() ? spec.decay : grid.decay[f];
                  cell.policy = base;
                  if (!grid.starvation_delay.empty())
                    cell.policy.starvation_delay = grid.starvation_delay[a];
                  if (!grid.bar_heavy_users.empty())
                    cell.policy.bar_heavy_users = grid.bar_heavy_users[b];
                  if (!grid.heavy_user_factor.empty())
                    cell.policy.heavy_user_factor = grid.heavy_user_factor[c];
                  if (!grid.max_runtime.empty()) cell.policy.max_runtime = grid.max_runtime[d];
                  if (!grid.reservation_depth.empty())
                    cell.policy.reservation_depth = grid.reservation_depth[e];
                  // Preset names (the paper policies carry one) would go
                  // stale under overrides and would defeat canonical-key
                  // dedup; always re-derive from the knobs.
                  cell.policy.name.clear();
                  cell.policy = normalize_irrelevant_knobs(cell.policy);
                  cell.name = cell.policy.display_name();
                  if (cell.policy.heavy_user_factor != PolicyConfig{}.heavy_user_factor)
                    cell.name += "[heavy_user_factor=" +
                                 format_round_trip_double(cell.policy.heavy_user_factor) + "]";
                  cell.key = cell_key(cell, spec.wcl_enforcement);
                  if (!seen_keys.insert(cell.key).second) continue;
                  cell.index = plan.cells.size();
                  plan.cells.push_back(std::move(cell));
                }
    }
  }
  return plan;
}

Workload build_workload(const WorkloadSpec& spec, std::uint64_t seed,
                        workload::SwfReadResult* swf_info, SwfReaderKind) {
  Workload trace;
  if (spec.source == WorkloadSpec::Source::Swf) {
    workload::SwfReadOptions options;
    if (spec.swf_accept_all_statuses) options.accepted_statuses.clear();
    workload::SwfReadResult read = workload::read_swf_file_streaming(
        spec.swf_file, spec.system_size, options, spec.head);
    trace = read.workload;  // a view bump: the job table stays shared
    if (swf_info != nullptr) *swf_info = std::move(read);
  } else {
    workload::GeneratorConfig generator;
    generator.seed = seed;
    generator.count_scale = spec.scale;
    if (spec.system_size > 0) generator.system_size = spec.system_size;
    // A scaled-down trace keeps the weekly load comparable by shrinking the
    // span with the job count (never below four weeks).
    if (spec.scale < 1.0)
      generator.span = std::max<Time>(
          weeks(4),
          static_cast<Time>(static_cast<double>(workload::kRossTraceSpan) * spec.scale));
    trace = workload::generate_ross_workload(generator);
    if (spec.head > 0) trace = workload::head(trace, spec.head);
  }
  if (spec.rescale_load != 1.0) trace = workload::rescale_load(trace, spec.rescale_load);
  if (spec.estimate_factor > 0.0)
    trace = workload::with_estimate_factor(trace, spec.estimate_factor);
  return trace;
}

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
  obs::Span campaign_span("campaign");
  if (obs::armed()) campaign_span.set_arg(spec.name);
  CampaignResult result;
  result.spec = spec;
  // Sampled once: a breakdown collected under a mid-run arming change would
  // be partial, and the summary block must match what the cells recorded.
  result.breakdown_enabled = obs::armed();
  result.plan = expand_campaign(spec);
  const std::size_t n = result.plan.cells.size();

  // One workload per replicate seed, built up front (groups with different
  // engine knobs share it), fingerprinted for the journal cell keys.
  std::vector<std::pair<std::uint64_t, Workload>> workloads;
  std::vector<std::uint64_t> workload_fps;
  for (const std::uint64_t seed : result.plan.seeds) {
    obs::Span build_span("workload-build");
    if (obs::armed()) build_span.set_arg("seed=" + std::to_string(seed));
    workload::SwfReadResult swf_info;
    const bool want_swf = spec.workload.source == WorkloadSpec::Source::Swf && !result.swf_info;
    workloads.emplace_back(seed,
                           build_workload(spec.workload, seed, want_swf ? &swf_info : nullptr));
    if (want_swf) result.swf_info = std::move(swf_info);
    workload_fps.push_back(workload_fingerprint(workloads.back().second));
    CampaignResult::TraceInfo info;
    info.seed = seed;
    info.jobs = workloads.back().second.jobs.size();
    info.system_size = workloads.back().second.system_size;
    result.traces.push_back(info);
  }
  const auto seed_slot = [&](std::uint64_t seed) -> std::size_t {
    for (std::size_t i = 0; i < workloads.size(); ++i)
      if (workloads[i].first == seed) return i;
    throw std::logic_error("run_campaign: seed without workload");
  };

  // Journal identity: whole-spec fingerprint (header) + per-cell keys.
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  std::vector<std::string> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = persistent_cell_key(workload_fps[seed_slot(result.plan.cells[i].seed)], spec,
                                  result.plan.cells[i]);

  // Resume: replay the journal, then restore Ok cells by key below. Failed,
  // timed-out and cancelled records stay in the map but do not restore, so
  // those cells re-run (their new outcome is appended — last record wins).
  std::map<std::string, JournalCellRecord> journaled;
  if (options.resume) {
    if (options.journal_path.empty())
      throw std::runtime_error("campaign resume requires a journal path");
    obs::Span replay_span("journal-replay");
    JournalReplay replay = replay_journal(options.journal_path);
    if (replay.header.spec_fingerprint != spec_fp)
      throw std::runtime_error(options.journal_path +
                               ": journal was written by a different spec "
                               "(fingerprint mismatch); refusing to resume");
    result.replayed_records = replay.records;
    journaled = std::move(replay.cells);
  }
  std::unique_ptr<CampaignJournal> journal;
  if (!options.journal_path.empty()) {
    if (!options.resume) std::remove(options.journal_path.c_str());
    JournalHeader header;
    header.campaign = spec.name;
    header.spec_fingerprint = spec_fp;
    header.cells = n;
    try {
      journal = std::make_unique<CampaignJournal>(options.journal_path, header);
    } catch (const std::exception& error) {
      // The journal is an aid to resumption, not a result: losing it must
      // not abort hours of simulation. Run on without it and say so in the
      // summary; the results stores themselves stay fail-loud.
      result.journal_degraded = true;
      result.journal_error = error.what();
    }
  }

  // Shard: cells sharing (seed, engine knobs) sweep through one
  // ExperimentRunner; groups run in first-appearance order, so every output
  // is deterministic regardless of options.jobs.
  struct Group {
    std::uint64_t seed;
    double decay;
    std::vector<std::size_t> cell_positions;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const CampaignCell& cell = result.plan.cells[i];
    const auto group = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.seed == cell.seed && g.decay == cell.decay;
    });
    if (group == groups.end())
      groups.push_back({cell.seed, cell.decay, {i}});
    else
      group->cell_positions.push_back(i);
  }

  result.cells.resize(n);
  result.reports.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.cells[i].cell = result.plan.cells[i];

  bool halted = false;  // keep_going=false tripped by a failed cell
  for (const Group& group : groups) {
    if (halted || options.stop.stop_requested()) break;  // rest stays Pending
    obs::Span group_span("group");
    if (obs::armed())
      group_span.set_arg("seed=" + std::to_string(group.seed) +
                         " decay=" + format_round_trip_double(group.decay));

    // Restore journaled-Ok cells without simulating; collect the rest.
    std::vector<std::size_t> pending_positions;
    for (const std::size_t position : group.cell_positions) {
      const auto it = journaled.find(keys[position]);
      if (it != journaled.end() && it->second.status == CellStatus::Ok) {
        if (it->second.metrics.size() != spec.metrics.size())
          throw std::runtime_error(options.journal_path + ": journaled cell '" + keys[position] +
                                   "' has " + std::to_string(it->second.metrics.size()) +
                                   " metrics, spec wants " +
                                   std::to_string(spec.metrics.size()));
        CellResult& cell = result.cells[position];
        cell.status = CellStatus::Ok;
        cell.metrics = it->second.metrics;
        cell.restored = true;
        ++result.restored_cells;
      } else {
        pending_positions.push_back(position);
      }
    }
    if (pending_positions.empty()) continue;

    sim::EngineConfig base;
    base.fairshare_decay = group.decay;
    base.wcl_enforcement = spec.wcl_enforcement;
    metrics::FstOptions fst;
    fst.tolerance = spec.tolerance;
    // policy_* metrics need the forked-engine FST; anything else must not pay
    // for it (it is a second full sweep of the trace per cell).
    fst.policy_knowledge =
        std::any_of(spec.metrics.begin(), spec.metrics.end(),
                    [](const std::string& name) { return name.rfind("policy_", 0) == 0; });
    sim::ExperimentRunner runner(workloads[seed_slot(group.seed)].second, base, fst);

    std::vector<PolicyConfig> policies;
    policies.reserve(pending_positions.size());
    for (const std::size_t position : pending_positions)
      policies.push_back(result.plan.cells[position].policy);

    sim::IsolatedRunOptions run_options;
    run_options.jobs = options.jobs;
    run_options.stop = options.stop;
    run_options.keep_going = options.keep_going;
    if (options.cell_timeout > 0.0)
      // Chain to the campaign token so SIGINT still cancels the cell; the
      // deadline starts when the lane picks the cell up, not at sweep start.
      run_options.cell_stop = [&](std::size_t) {
        util::StopSource source(options.stop);
        source.set_deadline_after(options.cell_timeout);
        return source.token();
      };
    // The campaign.cell fault point (armed via PSCHED_FAULTS, e.g.
    // "campaign.cell:throw:after=2") replaces the old ad-hoc
    // PSCHED_FAULT_INJECT hook. `hang` parks cooperatively so the cell's own
    // token (timeout, signal, wall budget) can still cancel it — or forever,
    // for SIGKILL + --resume legs.
    run_options.on_start = [](std::size_t, const util::StopToken& token) {
      const util::fault::Shot shot = util::fault::check("campaign.cell");
      switch (shot.action) {
        case util::fault::Action::kNone:
          return;
        case util::fault::Action::kHang:
          while (!token.stop_requested())
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw sim::SimulationCancelled(token.reason());
        case util::fault::Action::kErrno:
        case util::fault::Action::kThrow:
          throw std::runtime_error("injected fault at campaign.cell");
      }
    };
    // Serialized by run_isolated: classify, record durably, count. A cell is
    // in the journal the instant it finished — a crash after this point
    // cannot lose it.
    run_options.on_finish = [&](std::size_t i, sim::CellOutcome& outcome) {
      const std::size_t position = pending_positions[i];
      CellResult& cell = result.cells[position];
      if (outcome.result) {
        cell.status = CellStatus::Ok;
        cell.metrics.reserve(spec.metrics.size());
        for (const std::string& metric : spec.metrics)
          cell.metrics.push_back(metrics::metric_value(outcome.result->report, metric));
      } else {
        try {
          std::rethrow_exception(outcome.error);
        } catch (const sim::SimulationCancelled& cancelled) {
          // A tripped campaign token (signal, wall budget) means the *run*
          // stopped, not that this cell was slow — label it cancelled even
          // when the proximate reason was the wall-budget deadline.
          cell.status = options.stop.stop_requested() ? CellStatus::Cancelled
                        : cancelled.reason() == util::StopReason::Timeout ? CellStatus::Timeout
                                                                         : CellStatus::Cancelled;
          cell.error = cancelled.what();
        } catch (const std::exception& error) {
          cell.status = CellStatus::Failed;
          cell.error = error.what();
        } catch (...) {
          cell.status = CellStatus::Failed;
          cell.error = "unknown error";
        }
      }
      if (result.breakdown_enabled) {
        CellResult::Breakdown& b = cell.breakdown;
        b.collected = true;
        b.wall_seconds = outcome.wall_seconds;
        if (outcome.result) {
          b.events_delivered = outcome.result->simulation.events_delivered;
          b.scheduler_invocations = outcome.result->simulation.scheduler_invocations;
          b.sim_makespan_seconds = static_cast<double>(outcome.result->simulation.makespan());
          b.fst_forks = outcome.result->fst_stats.forks;
          b.fst_drained = outcome.result->fst_stats.drained;
          b.fst_resolved_from_master = outcome.result->fst_stats.resolved_from_master;
          b.fst_peak_batch_bytes = outcome.result->fst_stats.peak_batch_bytes;
        }
      }
      // Keep the report; free the simulation (records and snapshots) now,
      // so the sweep holds at most one per lane.
      if (outcome.result) {
        result.reports[position] = std::move(outcome.result->report);
        outcome.result->simulation = SimulationResult{};
      }
      ++result.simulated_cells;
      if (journal) {
        JournalCellRecord record;
        record.key = keys[position];
        record.index = position;
        record.status = cell.status;
        record.metrics = cell.metrics;
        record.error = cell.error;
        try {
          journal->record(record);
        } catch (const std::exception& error) {
          // ENOSPC-class journal trouble mid-run: downgrade instead of
          // killing healthy simulation work. Cells from here on are simply
          // not journaled — a later --resume re-simulates them.
          result.journal_degraded = true;
          result.journal_error = error.what();
          journal.reset();
        }
      }
    };

    const std::vector<sim::CellOutcome> outcomes = runner.run_isolated(policies, run_options);
    for (const sim::CellOutcome& outcome : outcomes)
      if (outcome.error && !options.keep_going) halted = true;
  }

  // Reports carry their cell's name; the fairness and performance tables
  // have no decay column, so a decay axis of several values joins it.
  const bool tag_decay = spec.grid.decay.size() > 1;
  for (std::size_t i = 0; i < n; ++i)
    result.reports[i].policy =
        result.plan.cells[i].name +
        (tag_decay ? "[decay=" + format_round_trip_double(result.plan.cells[i].decay) + "]" : "");
  result.interrupted = options.stop.stop_requested();
  result.reports_complete =
      result.restored_cells == 0 &&
      std::all_of(result.cells.begin(), result.cells.end(),
                  [](const CellResult& cell) { return cell.status == CellStatus::Ok; });

  // Aggregate replicate seeds: Ok cells identical up to the seed share one
  // aggregate, values in seed-list order. Bootstrap rng streams are derived
  // per (aggregate, metric) from the spec seed, so the CI is deterministic
  // and independent of sweep parallelism — and of whether a cell was
  // simulated or restored, since journal metrics round-trip bit-exactly.
  struct AggSlot {
    std::string key;
    std::vector<std::size_t> cell_positions;
  };
  std::vector<AggSlot> slots;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (result.cells[i].status != CellStatus::Ok) continue;
    const CampaignCell& cell = result.cells[i].cell;
    std::ostringstream key;
    key << "decay=" << std::hexfloat << cell.decay << std::defaultfloat << '|'
        << cell.policy.canonical_key();
    const std::string agg_key = key.str();
    const auto slot = std::find_if(slots.begin(), slots.end(),
                                   [&](const AggSlot& s) { return s.key == agg_key; });
    if (slot == slots.end())
      slots.push_back({agg_key, {i}});
    else
      slot->cell_positions.push_back(i);
  }
  const util::Rng bootstrap_base(spec.bootstrap_seed);
  for (std::size_t a = 0; a < slots.size(); ++a) {
    const AggSlot& slot = slots[a];
    AggregateResult aggregate;
    const CampaignCell& first = result.cells[slot.cell_positions.front()].cell;
    aggregate.policy = first.name;
    aggregate.decay = first.decay;
    aggregate.replicates = slot.cell_positions.size();
    const util::Rng agg_rng = bootstrap_base.fork(a);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      std::vector<double> values;
      values.reserve(slot.cell_positions.size());
      for (const std::size_t position : slot.cell_positions)
        values.push_back(result.cells[position].metrics[m]);
      util::Rng metric_rng = agg_rng.fork(m);
      aggregate.metrics.push_back(util::bootstrap_mean_ci(
          values, spec.bootstrap_resamples, spec.bootstrap_confidence, metric_rng.next_u64()));
    }
    result.aggregates.push_back(std::move(aggregate));
  }
  return result;
}

void write_cells_csv(const CampaignResult& result, std::ostream& out) {
  out << "index,seed,decay,wcl_enforcement,policy,status";
  for (const std::string& metric : result.spec.metrics) out << ',' << metric;
  out << '\n';
  for (const CellResult& cell : result.cells) {
    out << cell.cell.index << ',' << cell.cell.seed << ','
        << format_round_trip_double(cell.cell.decay) << ','
        << wcl_name(result.spec.wcl_enforcement) << ',' << cell.cell.name << ','
        << cell_status_name(cell.status);
    if (cell.status == CellStatus::Ok)
      for (const double value : cell.metrics) out << ',' << format_round_trip_double(value);
    else
      for (std::size_t m = 0; m < result.spec.metrics.size(); ++m) out << ',';
    out << '\n';
  }
}

void write_summary_json(const CampaignResult& result, std::ostream& out) {
  const ScenarioSpec& spec = result.spec;
  out << "{\n";
  out << "  \"campaign\": \"" << json_escape(spec.name) << "\",\n";
  out << "  \"status\": \"" << (result.interrupted ? "interrupted" : "complete") << "\",\n";
  // Only a degraded run carries a journal line: a healthy journaled run and a
  // journal-less run stay byte-identical (the resume smoke depends on that).
  if (result.journal_degraded) {
    out << "  \"journal\": \"degraded\",\n";
    out << "  \"journal_error\": \"" << json_escape(result.journal_error) << "\",\n";
  }
  if (spec.workload.source == WorkloadSpec::Source::Swf) {
    out << "  \"source\": \"swf:" << json_escape(spec.workload.swf_file) << "\",\n";
    // Machine-sizing provenance: where the node count came from (header
    // fields vs widest job vs explicit override) plus the ingest counters,
    // computed over the full trace even under a head cap.
    if (result.swf_info) {
      const workload::SwfReadResult& info = *result.swf_info;
      out << "  \"swf_sizing\": {\"description\": \"" << json_escape(info.describe_sizing())
          << "\", \"total_records\": " << info.total_records
          << ", \"skipped_records\": " << info.skipped_records
          << ", \"filtered_records\": " << info.filtered_records << "},\n";
    }
  } else
    out << "  \"source\": \"ross\",\n  \"scale\": "
        << format_round_trip_double(spec.workload.scale) << ",\n";
  out << "  \"expanded_cells\": " << result.plan.expanded_cells << ",\n";
  out << "  \"unique_cells\": " << result.plan.cells.size() << ",\n";
  // Per-status counts and errors are independent of *how* each Ok cell was
  // obtained (simulated vs journal-restored), so a resumed run's summary is
  // byte-identical to an uninterrupted one.
  out << "  \"cells\": {";
  bool first_count = true;
  for (const CellStatus status : {CellStatus::Ok, CellStatus::Failed, CellStatus::Timeout,
                                  CellStatus::Cancelled, CellStatus::Pending}) {
    out << (first_count ? "" : ", ") << '"' << cell_status_name(status)
        << "\": " << result.count(status);
    first_count = false;
  }
  out << "},\n";
  out << "  \"cell_errors\": [";
  bool first_error = true;
  for (const CellResult& cell : result.cells) {
    if (cell.status == CellStatus::Ok || cell.status == CellStatus::Pending) continue;
    out << (first_error ? "" : ", ") << "{\"index\": " << cell.cell.index << ", \"status\": \""
        << cell_status_name(cell.status) << "\", \"error\": \"" << json_escape(cell.error)
        << "\"}";
    first_error = false;
  }
  out << "],\n";
  // Observability block, present only when the campaign ran with obs armed.
  // Emitted as a contiguous group of lines whose delimiters appear nowhere
  // else in this writer, so the byte-identity contract is checkable with
  //   sed '/^  "breakdown": \[$/,/^  \],$/d' summary.json
  // (the CI trace leg and tests/test_obs.cpp do exactly that).
  if (result.breakdown_enabled) {
    out << "  \"breakdown\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const CellResult& cell = result.cells[i];
      const CellResult::Breakdown& b = cell.breakdown;
      const char* provenance = cell.restored ? "journal" : !b.collected ? "none" : "computed";
      out << "    {\"index\": " << cell.cell.index << ", \"policy\": \""
          << json_escape(cell.cell.name) << "\", \"seed\": " << cell.cell.seed
          << ", \"status\": \"" << cell_status_name(cell.status) << "\", \"provenance\": \""
          << provenance << "\", \"wall_seconds\": " << format_round_trip_double(b.wall_seconds)
          << ", \"events_delivered\": " << b.events_delivered
          << ", \"scheduler_invocations\": " << b.scheduler_invocations
          << ", \"sim_makespan_seconds\": " << format_round_trip_double(b.sim_makespan_seconds)
          << ", \"fst_forks\": " << b.fst_forks << ", \"fst_drained\": " << b.fst_drained
          << ", \"fst_resolved_from_master\": " << b.fst_resolved_from_master
          << ", \"fst_peak_batch_bytes\": " << b.fst_peak_batch_bytes << "}"
          << (i + 1 != result.cells.size() ? "," : "") << '\n';
    }
    out << "  ],\n";
  }
  out << "  \"seeds\": [";
  for (std::size_t i = 0; i < result.plan.seeds.size(); ++i)
    out << (i != 0 ? ", " : "") << result.plan.seeds[i];
  out << "],\n";
  out << "  \"wcl_enforcement\": \"" << wcl_name(spec.wcl_enforcement) << "\",\n";
  out << "  \"tolerance_seconds\": " << spec.tolerance << ",\n";
  out << "  \"bootstrap\": {\"resamples\": " << spec.bootstrap_resamples
      << ", \"confidence\": " << format_round_trip_double(spec.bootstrap_confidence)
      << ", \"seed\": " << spec.bootstrap_seed << "},\n";
  out << "  \"metrics\": [";
  for (std::size_t i = 0; i < spec.metrics.size(); ++i)
    out << (i != 0 ? ", " : "") << '"' << json_escape(spec.metrics[i]) << '"';
  out << "],\n";
  out << "  \"policies\": [\n";
  for (std::size_t a = 0; a < result.aggregates.size(); ++a) {
    const AggregateResult& aggregate = result.aggregates[a];
    out << "    {\"policy\": \"" << json_escape(aggregate.policy)
        << "\", \"decay\": " << format_round_trip_double(aggregate.decay)
        << ", \"replicates\": " << aggregate.replicates << ", \"metrics\": {";
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      const util::BootstrapCi& ci = aggregate.metrics[m];
      out << (m != 0 ? ", " : "") << '"' << json_escape(spec.metrics[m])
          << "\": {\"mean\": " << format_round_trip_double(ci.mean)
          << ", \"ci_lo\": " << format_round_trip_double(ci.lo)
          << ", \"ci_hi\": " << format_round_trip_double(ci.hi) << '}';
    }
    out << "}}" << (a + 1 != result.aggregates.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

}  // namespace psched::scenario
