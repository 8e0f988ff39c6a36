// psched_run: run scheduling policies on a trace and print the full report.
//
//   psched_run [options]
//     --swf FILE          read an SWF V2 trace (default: synthetic Ross)
//     --scale S           synthetic trace count scale (default 1.0)
//     --seed N            synthetic trace seed (default 20021201)
//     --system-size N     override machine size
//     --policy NAME       policy to run (repeatable); NAME is one of the
//                         paper policies (cplant24.nomax.all, cons.72max,
//                         ...), fcfs, easy, noguarantee, depthN, or
//                         cons.fcfs. Default: the paper's nine policies.
//     --decay F           fairshare decay factor per day (default 0.9)
//     --tolerance SECS    unfairness tolerance (default 86400)
//     --jobs N            concurrent policy simulations (default: thread-pool
//                         size; 1 = serial; results identical either way)
//     --csv               emit CSV instead of aligned tables
//     --by-width          also print the per-width breakdown tables
//     --by-user N         also print the N heaviest users' treatment
//     --write-swf FILE    dump the (possibly synthetic) trace as SWF and exit
//     --trace FILE        arm the observability layer and export a Perfetto /
//                         Chrome trace-event JSON to FILE on exit (equivalent
//                         to PSCHED_TRACE=FILE; the report bytes are
//                         unchanged — see docs/observability.md)

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "metrics/breakdowns.hpp"
#include "metrics/report.hpp"
#include "obs/obs.hpp"
#include "scenario/campaign.hpp"
#include "sim/experiment.hpp"
#include "util/parse.hpp"
#include "workload/swf.hpp"

namespace {

using namespace psched;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "psched_run: " << message << "\n(run with --help for usage)\n";
  std::exit(2);
}

/// The value of numeric flag `flag`, parsed as a whole token within
/// [lo, hi]; anything else exits 2 naming the flag and the expected `what`.
template <typename T>
T parse_flag(const std::string& flag, const char* text, const char* what, T lo,
             T hi = std::numeric_limits<T>::max()) {
  const auto value = util::parse_number<T>(text, lo, hi);
  if (!value) fail(flag + " wants " + what + ", got '" + text + "'");
  return *value;
}

void print_usage() {
  std::cout <<
      "psched_run — fairness-aware parallel job scheduling simulator\n"
      "  --swf FILE | --scale S --seed N   trace source (default synthetic Ross)\n"
      "  --system-size N                   machine size override\n"
      "  --policy NAME                     repeatable; default: all nine paper policies\n"
      "  --decay F --tolerance SECS        fairness knobs\n"
      "  --jobs N                          concurrent policy simulations (default: pool\n"
      "                                    size, env PSCHED_THREADS; 1 = serial; the\n"
      "                                    report is byte-identical for every N)\n"
      "  --csv --by-width --by-user N      output options\n"
      "  --write-swf FILE                  dump trace and exit\n"
      "  --trace FILE                      export a Perfetto trace JSON on exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string write_swf_path;
  scenario::WorkloadSpec source;  // synthetic Ross unless --swf
  double decay = 0.9;
  Time tolerance = hours(24);
  bool csv = false;
  bool by_width = false;
  int by_user = 0;
  std::size_t jobs = 0;  // 0 = global pool size
  std::vector<PolicyConfig> policies;

  constexpr double kPositive = std::numeric_limits<double>::min();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--swf") {
      source.source = scenario::WorkloadSpec::Source::Swf;
      source.swf_file = next();
    } else if (arg == "--write-swf") {
      write_swf_path = next();
    } else if (arg == "--scale") {
      source.scale = parse_flag(arg, next(), "a number > 0", kPositive);
    } else if (arg == "--seed") {
      source.seed = parse_flag(arg, next(), "an unsigned integer", std::uint64_t{0});
    } else if (arg == "--system-size") {
      source.system_size = parse_flag(arg, next(), "an integer >= 1", NodeCount{1});
    } else if (arg == "--policy") {
      const std::string name = next();
      const auto policy = policy_from_name(name);
      if (!policy) fail("unknown policy '" + name + "'");
      policies.push_back(*policy);
    } else if (arg == "--decay") {
      decay = parse_flag(arg, next(), "a number in (0, 1]", kPositive, 1.0);
    } else if (arg == "--tolerance") {
      tolerance = parse_flag(arg, next(), "an integer number of seconds >= 0", Time{0});
    } else if (arg == "--jobs") {
      jobs = parse_flag(arg, next(), "an integer >= 1", std::size_t{1});
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--by-width") {
      by_width = true;
    } else if (arg == "--by-user") {
      by_user = parse_flag(arg, next(), "an integer >= 0", 0);
    } else if (arg == "--trace") {
      obs::arm();
      obs::set_exit_trace_path(next());
    } else {
      fail("unknown option '" + arg + "'");
    }
  }

  // Trace.
  workload::SwfReadResult read;
  const bool swf_source = source.source == scenario::WorkloadSpec::Source::Swf;
  const Workload trace =
      scenario::build_workload(source, source.seed, swf_source ? &read : nullptr);
  if (swf_source) {
    std::cout << "# read " << trace.jobs.size() << " jobs from " << source.swf_file << " (of "
              << read.total_records << " records: skipped " << read.skipped_records
              << " invalid, filtered " << read.filtered_records << " non-completed)\n"
              << "# machine: " << read.describe_sizing() << '\n';
  } else {
    std::cout << "# generated " << trace.jobs.size() << " synthetic jobs (seed " << source.seed
              << ", scale " << source.scale << ")\n"
              << "# machine: " << trace.system_size << " nodes\n";
  }

  if (!write_swf_path.empty()) {
    workload::write_swf_file(write_swf_path, trace);
    std::cout << "# wrote " << write_swf_path << '\n';
    return 0;
  }

  if (policies.empty()) policies = all_paper_policies();

  sim::EngineConfig base;
  base.fairshare_decay = decay;
  metrics::FstOptions fst_options;
  fst_options.tolerance = tolerance;
  const sim::ExperimentRunner runner(trace, base, fst_options);

  std::cout << "# simulating " << policies.size() << " policies";
  for (const PolicyConfig& policy : policies) std::cout << ' ' << policy.display_name();
  std::cout << "...\n" << std::flush;
  const std::vector<sim::ExperimentResult> results = runner.run_all(policies, jobs);

  std::vector<metrics::PolicyReport> reports;
  for (const sim::ExperimentResult& run : results) reports.push_back(run.report);

  const util::TextTable fairness = metrics::fairness_summary_table(reports);
  const util::TextTable performance = metrics::performance_summary_table(reports);
  std::cout << "\n== fairness ==\n" << (csv ? fairness.csv() : fairness.str())
            << "\n== performance ==\n" << (csv ? performance.csv() : performance.str());

  if (by_width) {
    const util::TextTable miss = metrics::miss_by_width_table(reports);
    const util::TextTable tat = metrics::turnaround_by_width_table(reports);
    std::cout << "\n== avg miss by width ==\n" << (csv ? miss.csv() : miss.str())
              << "\n== avg turnaround by width ==\n" << (csv ? tat.csv() : tat.str());
  }

  if (by_user > 0) {
    const sim::ExperimentResult& run = results.front();
    const auto users = metrics::user_breakdown(run.simulation, &run.report.fairness, tolerance);
    util::TextTable table({"user", "jobs", "proc_hours", "avg_wait_s", "avg_miss_s", "unfair"});
    for (std::size_t u = 0; u < std::min<std::size_t>(users.size(),
                                                      static_cast<std::size_t>(by_user));
         ++u) {
      const metrics::UserSummary& s = users[u];
      table.begin_row()
          .add_int(s.user)
          .add_int(static_cast<long long>(s.jobs))
          .add(s.proc_seconds / 3600.0, 0)
          .add(s.avg_wait, 0)
          .add(s.avg_miss, 0)
          .add_percent(s.unfair_fraction);
    }
    std::cout << "\n== heaviest users under " << policies.front().display_name() << " ==\n"
              << (csv ? table.csv() : table.str());
  }
  return 0;
}
