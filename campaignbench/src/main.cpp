// campaign_bench: the compiled half of the campaign benchmark (run.py drives
// it; see campaignbench/README.md). One invocation runs one workload once and
// prints one JSON object on stdout.
//
//   campaign_bench untraced --workload W --seed N --work DIR [--smoke] [--setups K]
//       Sets the workload up K times (timed), then runs the campaign end to
//       end exactly as psched_campaign --out does — run_campaign with a
//       journal, then cells.csv and summary.json through the atomic store
//       writer — with all tracing off. The journal watcher times it from
//       outside (journal_watch.hpp).
//
//   campaign_bench traced --workload W --seed N --work DIR [--smoke] --trace-out FILE
//       Re-executes every cell by calling each layer's public entry point in
//       the order ExperimentRunner::run uses (simulate, evaluate, policy FST,
//       aggregate), timing each call, with a forwarding scheduler timing the
//       core layer and obs counters armed for deterministic work counts.
//       Writes its cells.csv (compared with the untraced store by run.py) and
//       its spans as Chrome trace-event JSON.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "journal_watch.hpp"
#include "metrics/fst.hpp"
#include "metrics/report.hpp"
#include "metrics/selection.hpp"
#include "obs/obs.hpp"
#include "scenario/campaign.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "span_log.hpp"
#include "timed_scheduler.hpp"
#include "timing.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"
#include "workload/swf.hpp"
#include "workload/transform.hpp"
#include "workloads.hpp"

namespace {

using namespace campaignbench;
namespace scenario = psched::scenario;
namespace sim = psched::sim;
using psched::Time;
using psched::Workload;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string work;
  std::string trace_out;
  bool smoke = false;
  int setups = 3;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "campaign_bench: " << error << "\n"
            << "usage: campaign_bench untraced|traced --workload W --seed N --work DIR\n"
            << "                      [--smoke] [--setups K] [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) usage("missing mode");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") args.workload = next();
    else if (arg == "--seed") args.seed = std::stoull(next());
    else if (arg == "--work") args.work = next();
    else if (arg == "--trace-out") args.trace_out = next();
    else if (arg == "--setups") args.setups = std::stoi(next());
    else if (arg == "--smoke") args.smoke = true;
    else usage("unknown argument " + arg);
  }
  if (args.mode != "untraced" && args.mode != "traced") usage("unknown mode " + args.mode);
  if (args.workload.empty() || args.work.empty()) usage("--workload and --work are required");
  if (args.mode == "traced" && args.trace_out.empty()) usage("traced needs --trace-out");
  if (args.setups < 1) usage("--setups must be >= 1");
  return args;
}

/// Minimal flat JSON object writer (values are numbers or pre-rendered JSON).
class Json {
 public:
  Json& num(const std::string& key, double value) {
    return raw(key, scenario::format_round_trip_double(value));
  }
  Json& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& str(const std::string& key, const std::string& value) {
    return raw(key, '"' + scenario::json_escape(value) + '"');
  }
  Json& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ", ") << '"' << scenario::json_escape(key) << "\": " << json;
    first_ = false;
    return *this;
  }
  std::string done() const { return first_ ? "{}" : out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

std::string fingerprint_json(const BenchWorkload& w, std::uint64_t seed) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Json()
      .str("compiler", compiler)
      .str("build_type", CAMPAIGNBENCH_BUILD_TYPE)
      .count("pool_threads", psched::util::global_pool().size())
      .count("lanes", w.lanes)
      .count("seed", seed)
      .done();
}

// --- untraced -----------------------------------------------------------------

/// One set-up: the workload build (generation, or SWF export plus streaming
/// re-read) and plan expansion. Returns its seconds.
double setup_once(const BenchWorkload& w) {
  const double t0 = now_s();
  if (w.from_swf)
    psched::workload::write_swf_file(w.spec.workload.swf_file,
                                     psched::workload::generate_ross_workload(w.generator));
  const Workload trace = scenario::build_workload(w.spec.workload, w.spec.workload.seed, nullptr,
                                                  scenario::SwfReaderKind::Streaming);
  const scenario::CampaignPlan plan = scenario::expand_campaign(w.spec);
  const double elapsed = now_s() - t0;
  if (trace.jobs.empty() || plan.cells.empty())
    throw std::runtime_error("set-up produced an empty workload or plan");
  return elapsed;
}

int run_untraced(const Args& args) {
  const BenchWorkload w = make_workload(args.workload, args.seed, args.smoke, args.work);
  std::vector<std::string> setups;
  for (int k = 0; k < args.setups; ++k)
    setups.push_back(scenario::format_round_trip_double(setup_once(w)));

  const std::string store = args.work + "/store";
  std::filesystem::create_directories(store);
  scenario::CampaignOptions options;
  options.jobs = w.lanes;
  options.journal_path = store + "/journal.jsonl";

  JournalWatch watch(store);
  const scenario::CampaignResult result = scenario::run_campaign(w.spec, options);
  std::vector<JournalWatch::Mark> marks = watch.finish();
  const double t_store = now_s();
  {
    std::ostringstream cells;
    scenario::write_cells_csv(result, cells);
    psched::util::atomic_write_file(store + "/cells.csv", cells.str());
    std::ostringstream summary;
    scenario::write_summary_json(result, summary);
    psched::util::atomic_write_file(store + "/summary.json", summary.str());
  }
  const double t_end = now_s();
  const double cpu_end = process_cpu_s();

  if (marks.empty() || !marks.front().header)
    throw std::runtime_error("journal watcher saw no header line");
  const JournalWatch::Mark header = marks.front();
  marks.erase(marks.begin());

  // Lanes pull cells in plan order, so the first `lanes` cells start at the
  // header and cell lanes+k starts when the k-th cell (in finish order) ends.
  const std::size_t n = result.cells.size();
  std::vector<double> finish(n, -1.0);
  for (const JournalWatch::Mark& mark : marks)
    if (mark.index >= 0 && static_cast<std::size_t>(mark.index) < n)
      finish[static_cast<std::size_t>(mark.index)] = mark.at_s;
  std::vector<std::string> cells;
  double last_finish = header.at_s;
  std::uint64_t jobs_simulated = 0;
  const std::uint64_t trace_jobs = result.traces.empty() ? 0 : result.traces.front().jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const scenario::CellResult& cell = result.cells[i];
    const double start =
        i < w.lanes || i - w.lanes >= marks.size() ? header.at_s : marks[i - w.lanes].at_s;
    const double wall = finish[i] >= 0.0 ? finish[i] - start : 0.0;
    last_finish = std::max(last_finish, finish[i]);
    if (cell.status != scenario::CellStatus::Pending) jobs_simulated += trace_jobs;
    cells.push_back(Json()
                        .count("index", cell.cell.index)
                        .str("policy", cell.cell.policy.display_name())
                        .str("status", scenario::cell_status_name(cell.status))
                        .num("wall_s", wall)
                        .done());
  }

  std::cout << Json()
                   .str("mode", "untraced")
                   .str("workload", w.name)
                   .raw("setup_s", json_list(setups))
                   .num("wall_s", t_end - header.at_s)
                   .num("cpu_s", cpu_end - header.cpu_s)
                   .num("sweep_s", last_finish - header.at_s)
                   .num("store_write_s", t_end - t_store)
                   .count("jobs_simulated", jobs_simulated)
                   .raw("cells", json_list(cells))
                   .str("store", store)
                   .raw("fingerprint", fingerprint_json(w, args.seed))
                   .done()
            << std::endl;
  return 0;
}

// --- traced -------------------------------------------------------------------

/// Mirrors sim::policy_no_later_arrivals_fst step for step through the public
/// fork API (run_with_arrival_hook, fork_for_arrival, run_until_started), with
/// a TimedScheduler in the master engine so that every fork's scheduler clone
/// and drain is timed as well. The library function itself runs, timed, in
/// the cell; this probe only attributes its core-layer work, and its result
/// must equal the library's bit for bit.
std::vector<Time> fork_probe(const Workload& workload, const sim::EngineConfig& config,
                             TallySink& sink) {
  const std::size_t n = workload.jobs.size();
  std::vector<Time> fair_start(n, psched::kNoTime);
  sim::EngineConfig run = config;
  run.record_snapshots = false;
  const std::size_t batch_cap =
      std::max<std::size_t>(4 * psched::util::global_pool().size(), 16);
  std::vector<std::pair<psched::JobId, std::unique_ptr<sim::SimulationEngine>>> batch;
  batch.reserve(batch_cap);
  sim::SimulationEngine master(
      workload, run, std::make_unique<TimedScheduler>(psched::make_scheduler(run.policy), sink));
  const psched::SimulationResult* master_result = nullptr;
  const auto resolved_without_drain = [&](psched::JobId target) {
    const Time start = master_result != nullptr
                           ? master_result->records[static_cast<std::size_t>(target)].start
                           : master.recorded_start(target);
    const auto next = static_cast<std::size_t>(target) + 1;
    if (start == psched::kNoTime || (next < n && start >= workload.jobs[next].submit))
      return psched::kNoTime;
    return start;
  };
  std::vector<std::size_t> pending;
  const auto drain_batch = [&] {
    pending.clear();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Time resolved = resolved_without_drain(batch[k].first);
      if (resolved != psched::kNoTime) {
        fair_start[static_cast<std::size_t>(batch[k].first)] = resolved;
        batch[k].second.reset();
      } else {
        pending.push_back(k);
      }
    }
    psched::util::parallel_for(pending.size(), [&](std::size_t p) {
      auto& [target, fork] = batch[pending[p]];
      fair_start[static_cast<std::size_t>(target)] = fork->run_until_started(target);
      fork.reset();
    });
    batch.clear();
  };
  const psched::SimulationResult result = master.run_with_arrival_hook([&](psched::JobId id) {
    batch.emplace_back(id, master.fork_for_arrival(id));
    if (batch.size() >= batch_cap) drain_batch();
  });
  master_result = &result;
  drain_batch();
  return fair_start;
}

double snapshot_bytes(const psched::SimulationResult& result) {
  double bytes = 0.0;
  for (const psched::ArrivalSnapshot& s : result.snapshots)
    bytes += static_cast<double>(sizeof(s) + s.running.size() * sizeof(psched::SnapshotRunning) +
                                 s.waiting.size() * sizeof(psched::SnapshotWaiting));
  return bytes;
}

/// Everything the traced run keeps about one cell.
struct TracedCell {
  TallySink sink;  ///< the simulate pass's scheduler
  scenario::CellStatus status = scenario::CellStatus::Pending;
  std::string error;
  std::vector<double> metrics;
  std::vector<Time> policy_fair_start;  ///< policy-knowledge cells only
  double wall_s = 0.0;
  double simulate_s = 0.0;
  double evaluate_s = 0.0;  ///< evaluate + aggregate_fst
  double fst_call_s = 0.0;
  std::uint64_t events = 0;
  double snapshot_bytes = 0.0;
  sim::PolicyFstStats fst;
};

void run_cell(const BenchWorkload& w, const Workload& trace, const scenario::CampaignCell& cell,
              SpanLog& spans, int tid, TracedCell& out) {
  const scenario::ScenarioSpec& spec = w.spec;
  sim::EngineConfig config;
  config.fairshare_decay = cell.decay;
  config.wcl_enforcement = spec.wcl_enforcement;
  config.policy = cell.policy;
  psched::metrics::FstOptions fst;
  fst.tolerance = spec.tolerance;
  fst.policy_knowledge = std::any_of(spec.metrics.begin(), spec.metrics.end(), [](const auto& m) {
    return m.rfind("policy_", 0) == 0;
  });

  const double t0 = now_s();
  SpanLog::Scope cell_span(spans, "cell", tid, cell.policy.display_name());
  try {
    psched::SimulationResult result;
    out.simulate_s = spans.timed("simulate", tid, [&] {
      result = sim::simulate_with(
          trace, config,
          std::make_unique<TimedScheduler>(psched::make_scheduler(config.policy), out.sink));
    });
    psched::metrics::PolicyReport report;
    out.evaluate_s = spans.timed("evaluate", tid,
                                 [&] { report = psched::metrics::evaluate(result, fst); });
    if (fst.policy_knowledge) {
      sim::PolicyFstOptions policy_options;
      policy_options.fork_batch = fst.fork_batch;
      policy_options.stats = &out.fst;
      out.fst_call_s = spans.timed("policy-fst", tid, [&] {
        report.policy_fairness.fair_start =
            sim::policy_no_later_arrivals_fst(trace, config, policy_options);
      });
      out.evaluate_s += spans.timed(
          "evaluate", tid,
          [&] { psched::metrics::aggregate_fst(result, fst, report.policy_fairness); },
          "aggregate_fst");
      report.has_policy_fairness = true;
      out.policy_fair_start = report.policy_fairness.fair_start;
    }
    for (const std::string& metric : spec.metrics)
      out.metrics.push_back(psched::metrics::metric_value(report, metric));
    out.events = result.events_delivered;
    out.snapshot_bytes = snapshot_bytes(result);
    out.status = scenario::CellStatus::Ok;
  } catch (const std::exception& error) {
    out.status = scenario::CellStatus::Failed;
    out.error = error.what();
  }
  out.wall_s = now_s() - t0;
}

int run_traced(const Args& args) {
  const BenchWorkload w = make_workload(args.workload, args.seed, args.smoke, args.work);
  SpanLog spans;
  Json metrics;
  std::vector<std::string> errors;

  // Set-up, one layer call at a time.
  Workload trace;
  {
    SpanLog::Scope build_span(spans, "workload-build", 0, w.name);
    double generate_s = 0.0, write_s = 0.0, read_s = 0.0;
    if (w.from_swf) {
      Workload generated;
      generate_s = spans.timed(
          "generate", 0, [&] { generated = psched::workload::generate_ross_workload(w.generator); });
      write_s = spans.timed("swf-write", 0, [&] {
        psched::workload::write_swf_file(w.spec.workload.swf_file, generated);
      });
      read_s = spans.timed("swf-read", 0, [&] {
        trace = psched::workload::read_swf_file_streaming(w.spec.workload.swf_file).workload;
      });
      trace = psched::workload::rescale_load(trace, w.spec.workload.rescale_load);
    } else {
      SpanLog::Scope span(spans, "generate", 0);
      const double t0 = now_s();
      trace = psched::workload::generate_ross_workload(
          ross_generator(w.spec.workload.seed, w.spec.workload.scale));
      generate_s = now_s() - t0;
    }
    metrics.num("workload.generate_s", generate_s)
        .num("workload.swf_write_s", write_s)
        .num("workload.swf_read_s", read_s)
        .count("workload.jobs", trace.jobs.size());
  }
  // The layer-by-layer build must be the workload run_campaign builds.
  if (scenario::workload_fingerprint(trace) !=
      scenario::workload_fingerprint(scenario::build_workload(
          w.spec.workload, w.spec.workload.seed, nullptr, scenario::SwfReaderKind::Streaming)))
    errors.push_back("\"traced workload build differs from scenario::build_workload\"");
  const scenario::CampaignPlan plan = scenario::expand_campaign(w.spec);
  const std::size_t n = plan.cells.size();

  // Sweep: `lanes` lanes pull cells in plan order, as run_isolated does.
  std::vector<TracedCell> cells(n);
  psched::obs::reset();
  psched::obs::arm();
  const double sweep0 = now_s();
  {
    std::atomic<std::size_t> next{0};
    const auto lane = [&](int tid) {
      for (std::size_t i; (i = next.fetch_add(1)) < n;)
        run_cell(w, trace, plan.cells[i], spans, tid, cells[i]);
    };
    std::vector<std::jthread> extra;
    for (std::size_t l = 1; l < w.lanes; ++l) extra.emplace_back(lane, static_cast<int>(l + 1));
    lane(1);
  }
  const double sweep_s = now_s() - sweep0;
  using psched::obs::Counter;
  const auto counter = [](Counter c) { return psched::obs::counter_value(c); };
  const std::uint64_t replan_full = counter(Counter::kSchedReplanFull);
  const std::uint64_t replan_incremental = counter(Counter::kSchedReplanIncremental);
  metrics.count("core.replan_full", replan_full)
      .count("core.replan_incremental", replan_incremental)
      .num("core.replan_full_share",
           replan_full + replan_incremental > 0
               ? static_cast<double>(replan_full) /
                     static_cast<double>(replan_full + replan_incremental)
               : 0.0)
      .count("core.gap_index.probes", counter(Counter::kGapIndexProbes))
      .count("util.pool.tasks_leaf", counter(Counter::kPoolTasksLeaf))
      .count("util.pool.queue_high_water", counter(Counter::kPoolQueueDepthHighWater));
  std::ostringstream sweep_counters;
  psched::obs::write_counters_json(sweep_counters);
  psched::obs::reset();

  // Store write: the traced rows through the library's own writer.
  double store_write_s = 0.0;
  {
    SpanLog::Scope span(spans, "store-write", 0);
    const double t0 = now_s();
    scenario::CampaignResult result;
    result.spec = w.spec;
    result.cells.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      result.cells[i].cell = plan.cells[i];
      result.cells[i].status = cells[i].status;
      result.cells[i].metrics = cells[i].metrics;
      result.cells[i].error = cells[i].error;
    }
    std::ostringstream csv;
    scenario::write_cells_csv(result, csv);
    psched::util::atomic_write_file(args.work + "/traced_cells.csv", csv.str());
    store_write_s = now_s() - t0;
  }

  // Fork probe (policy-knowledge cells), outside the timed sweep.
  TallySink probe_sink;
  for (std::size_t i = 0; i < n; ++i) {
    if (cells[i].policy_fair_start.empty()) continue;
    SpanLog::Scope span(spans, "fork-probe", 0, plan.cells[i].policy.display_name());
    sim::EngineConfig config;
    config.fairshare_decay = plan.cells[i].decay;
    config.wcl_enforcement = w.spec.wcl_enforcement;
    config.policy = plan.cells[i].policy;
    if (fork_probe(trace, config, probe_sink) != cells[i].policy_fair_start)
      errors.push_back("\"fork probe disagrees with policy_no_later_arrivals_fst for " +
                       plan.cells[i].policy.display_name() + "\"");
  }

  // Per-layer roll-up over cells.
  SchedTally simulate_tally;
  double simulate_s = 0.0, evaluate_s = 0.0, fst_s = 0.0, cell_sum_s = 0.0, max_snapshot = 0.0,
         max_batch = 0.0;
  std::uint64_t events = 0, forks = 0, drained = 0, resolved = 0;
  std::vector<std::string> cell_rows;
  for (std::size_t i = 0; i < n; ++i) {
    const TracedCell& c = cells[i];
    simulate_tally.merge(c.sink.total());
    simulate_s += c.simulate_s;
    evaluate_s += c.evaluate_s;
    fst_s += c.fst_call_s;
    cell_sum_s += c.wall_s;
    events += c.events;
    forks += c.fst.forks;
    drained += c.fst.drained;
    resolved += c.fst.resolved_from_master;
    max_snapshot = std::max(max_snapshot, c.snapshot_bytes);
    max_batch = std::max(max_batch, static_cast<double>(c.fst.peak_batch_bytes));
    if (c.status != scenario::CellStatus::Ok)
      errors.push_back('"' + scenario::json_escape(plan.cells[i].policy.display_name() + ": " +
                                                   c.error) +
                       '"');
    cell_rows.push_back(Json()
                            .count("index", plan.cells[i].index)
                            .str("policy", plan.cells[i].policy.display_name())
                            .str("status", scenario::cell_status_name(c.status))
                            .count("events", c.events)
                            .count("fst_forks", c.fst.forks)
                            .count("fst_drained", c.fst.drained)
                            .num("wall_s", c.wall_s)
                            .done());
  }
  SchedTally all = simulate_tally;
  all.merge(probe_sink.total());
  const double collect_s = static_cast<double>(all.collect_ns) * 1e-9;
  const double mib = 1024.0 * 1024.0;
  metrics.count("core.sched.collect_calls", all.collect_calls)
      .num("core.sched.collect_busy_s", collect_s)
      .num("core.sched.collect_p50_us", all.collect_quantile_us(0.50))
      .num("core.sched.collect_p99_us", all.collect_quantile_us(0.99))
      .num("core.sched.productive_ratio",
           all.collect_calls > 0 ? static_cast<double>(all.productive_calls) /
                                       static_cast<double>(all.collect_calls)
                                 : 0.0)
      .num("core.sched.event_busy_s", static_cast<double>(all.event_ns) * 1e-9)
      .count("core.sched.clone_calls", all.clone_calls)
      .num("core.sched.clone_s", static_cast<double>(all.clone_ns) * 1e-9)
      .count("sim.events", events)
      .num("sim.simulate_s", simulate_s)
      .num("sim.engine_self_s",
           simulate_s - static_cast<double>(simulate_tally.collect_ns + simulate_tally.event_ns) *
                            1e-9)
      .num("sim.events_per_s", simulate_s > 0.0 ? static_cast<double>(events) / simulate_s : 0.0)
      .num("sim.snapshot_mb", max_snapshot / mib)
      .num("sim.fst.call_s", fst_s)
      .count("sim.fst.forks", forks)
      .count("sim.fst.drained", drained)
      .num("sim.fst.resolved_ratio",
           forks > 0 ? static_cast<double>(resolved) / static_cast<double>(forks) : 0.0)
      .num("sim.fst.peak_batch_mb", max_batch / mib)
      .num("sim.sweep.lane_idle_s",
           std::max(0.0, static_cast<double>(w.lanes) * sweep_s - cell_sum_s))
      .num("metrics.evaluate_s", evaluate_s);

  psched::util::atomic_write_file(args.trace_out, spans.chrome_json(sweep_counters.str()));
  std::vector<std::string> self_times;
  for (const auto& [name, t] : spans.totals())
    self_times.push_back(Json()
                             .str("span", name)
                             .count("count", t.count)
                             .num("total_s", t.total_s)
                             .num("self_s", t.self_s)
                             .done());

  std::cout << Json()
                   .str("mode", "traced")
                   .str("workload", w.name)
                   .raw("metrics", metrics.done())
                   .num("traced_wall_s", sweep_s + store_write_s)
                   .num("store_write_s", store_write_s)
                   .raw("cells", json_list(cell_rows))
                   .raw("spans", json_list(self_times))
                   .str("store", args.work + "/traced_cells.csv")
                   .raw("errors", json_list(errors))
                   .raw("fingerprint", fingerprint_json(w, args.seed))
                   .done()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.mode == "untraced" ? run_untraced(args) : run_traced(args);
  } catch (const std::exception& error) {
    std::cerr << "campaign_bench: " << error.what() << '\n';
    return 1;
  }
}
