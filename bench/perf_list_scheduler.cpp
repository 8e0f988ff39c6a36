// Microbenchmarks of the per-node list scheduler (the FST engine substrate),
// run-length-compressed fast path vs the preserved seed implementation
// (one entry per node, std::sort per occupy).

#include <benchmark/benchmark.h>

#include "core/list_scheduler.hpp"
#include "oracles/reference_profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace psched;

template <typename ListT>
void run_schedule(benchmark::State& state) {
  const auto nodes = static_cast<NodeCount>(state.range(0));
  util::Rng rng(7);
  std::vector<std::pair<NodeCount, Time>> jobs;
  for (int i = 0; i < 256; ++i)
    jobs.push_back({static_cast<NodeCount>(rng.uniform_int(1, nodes)),
                    rng.uniform_int(600, 86'400)});
  for (auto _ : state) {
    ListT list(nodes, 0);
    Time last = 0;
    for (const auto& [width, runtime] : jobs) last = list.schedule(width, runtime, 0);
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}

void BM_ListSchedulerSchedule(benchmark::State& state) { run_schedule<ListScheduler>(state); }
void BM_RefListSchedulerSchedule(benchmark::State& state) {
  run_schedule<reference::ReferenceListScheduler>(state);
}
BENCHMARK(BM_ListSchedulerSchedule)->Arg(128)->Arg(1524)->Arg(4096);
BENCHMARK(BM_RefListSchedulerSchedule)->Arg(128)->Arg(1524)->Arg(4096);

template <typename ListT>
void run_occupy(benchmark::State& state) {
  for (auto _ : state) {
    ListT list(1524, 0);
    for (int i = 0; i < 64; ++i) list.occupy(16, 1000 + i * 100);
    benchmark::DoNotOptimize(list.earliest_available());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_ListSchedulerOccupy(benchmark::State& state) { run_occupy<ListScheduler>(state); }
void BM_RefListSchedulerOccupy(benchmark::State& state) {
  run_occupy<reference::ReferenceListScheduler>(state);
}
BENCHMARK(BM_ListSchedulerOccupy);
BENCHMARK(BM_RefListSchedulerOccupy);

}  // namespace
