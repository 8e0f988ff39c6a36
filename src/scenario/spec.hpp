#pragma once
// Declarative scenario specs: one text file describes a whole campaign — the
// workload source (synthetic Ross with overrides, or an SWF archive plus
// transforms), a policy grid (named policies crossed with knob-override
// axes), a replication seed list, and the metrics to record. The campaign
// runner (scenario/campaign.hpp) expands this into simulation cells.
//
// Format: INI-style sections of `key = value` lines, full-line comments
// starting with '#' or ';', no external parser dependencies. Unknown
// sections, unknown keys, duplicate keys and malformed values are all
// rejected with the offending line number. See docs/campaign_specs.md for
// the reference and examples/campaigns/ for committed specs.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sim/engine.hpp"

namespace psched::scenario {

/// Where the campaign's workload comes from and how it is shaped. Transforms
/// apply in a fixed order: head, then rescale_load, then estimate_factor.
struct WorkloadSpec {
  enum class Source { Ross, Swf };
  Source source = Source::Ross;

  // Ross generator knobs ([workload] seed/scale; seed is the base value the
  // [seeds] list replaces per replicate).
  std::uint64_t seed = 20021201;
  double scale = 1.0;

  /// 0 = source default (generator config / SWF header sizing).
  NodeCount system_size = 0;

  /// SWF source only: the path the trace is read from, resolved relative
  /// to the spec file's directory.
  std::string swf_file;
  /// SWF source only: [workload] file as the spec wrote it. Empty for a
  /// spec built in code.
  std::string swf_file_in_spec;
  /// The trace's name in summary.json and the spec fingerprint: the path as
  /// the spec wrote it, so neither depends on the working directory.
  const std::string& swf_source() const {
    return swf_file_in_spec.empty() ? swf_file : swf_file_in_spec;
  }
  /// SWF source only: ingest every status (disables the completed-jobs
  /// filter, SwfReadOptions::accepted_statuses).
  bool swf_accept_all_statuses = false;

  // Transforms (identity defaults).
  std::size_t head = 0;          ///< keep first N jobs (0 = all)
  double rescale_load = 1.0;     ///< workload::rescale_load factor
  double estimate_factor = 0.0;  ///< workload::with_estimate_factor (0 = off)
};

/// Knob-override axes crossed over every named policy. An empty axis means
/// "leave the policy's own value". kNoTime in a Time axis means "none".
struct PolicyGrid {
  std::vector<Time> starvation_delay;   ///< CPlant family
  std::vector<bool> bar_heavy_users;    ///< CPlant family
  std::vector<double> heavy_user_factor;
  std::vector<Time> max_runtime;        ///< engine-level 72 h style limit
  std::vector<int> reservation_depth;   ///< Depth policy
  std::vector<double> decay;            ///< engine-level fairshare decay
};

struct ScenarioSpec {
  std::string name;
  std::vector<std::string> metrics;  ///< validated against metrics::is_metric_name

  Time tolerance = hours(24);  ///< FST unfairness tolerance
  std::size_t bootstrap_resamples = 2000;
  double bootstrap_confidence = 0.95;
  std::uint64_t bootstrap_seed = 1;

  WorkloadSpec workload;

  double decay = 0.9;  ///< engine fairshare decay (grid decay axis overrides)
  sim::WclEnforcement wcl_enforcement = sim::WclEnforcement::Never;

  std::vector<std::string> policy_names;  ///< resolved via policy_from_name
  PolicyGrid grid;

  /// Replication seeds (Ross source only; empty = the [workload] seed).
  std::vector<std::uint64_t> seeds;

  /// The seeds actually simulated: the list, or {workload.seed} when empty.
  std::vector<std::uint64_t> effective_seeds() const;
};

/// Parse and validate a spec. `origin` labels error messages ("file.spec:12:
/// unknown key ..."); `base_dir` resolves relative [workload] file paths
/// (empty = leave as written). Throws SpecError on any problem.
ScenarioSpec parse_spec(std::istream& in, const std::string& origin,
                        const std::string& base_dir = "");
ScenarioSpec parse_spec_file(const std::string& path);

/// All spec problems — syntax, unknown keys, bad values, semantic conflicts —
/// carry the spec origin and line number in what().
struct SpecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace psched::scenario
