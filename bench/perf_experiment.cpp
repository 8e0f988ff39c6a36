// Wall-clock of a full paper-style policy sweep through ExperimentRunner:
// the serial baseline (BM_Ref*, jobs = 1) vs the parallel sweep on the
// global pool (--jobs default). Pair naming follows the BM_Ref convention so
// tools/summarize_benches.py records the measured speedup.
//
// Note: the parallel/serial ratio only reflects cores actually available —
// on a single-CPU host the two cases measure the same work timeshared. The
// committed BENCH_experiments.json records the pool size alongside.

#include <benchmark/benchmark.h>

#include "sim/experiment.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace {

using namespace psched;

const Workload& sweep_trace() {
  static const Workload trace = workload::generate_small_workload(7, 1500, 512, days(21));
  return trace;
}

void run_sweep(benchmark::State& state, std::size_t jobs) {
  const std::vector<PolicyConfig> policies = all_paper_policies();
  const sim::ExperimentRunner runner(sweep_trace());
  for (auto _ : state) benchmark::DoNotOptimize(runner.run_all(policies, jobs).size());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(policies.size()));
  state.counters["jobs"] = static_cast<double>(jobs == 0 ? util::global_pool().size() : jobs);
  state.counters["pool_threads"] = static_cast<double>(util::global_pool().size());
}

void BM_RefExperimentSweep9(benchmark::State& state) { run_sweep(state, 1); }
void BM_ExperimentSweep9(benchmark::State& state) { run_sweep(state, 0); }

BENCHMARK(BM_RefExperimentSweep9)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExperimentSweep9)->Unit(benchmark::kMillisecond);

}  // namespace
