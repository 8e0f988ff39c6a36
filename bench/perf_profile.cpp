// Microbenchmarks of the availability Profile (the hot data structure under
// every backfilling scheduler).
//
// Every case is templated over both the optimized Profile and the preserved
// seed implementation (reference::ReferenceProfile), so the recorded
// BENCH_profile.json baseline carries the speedup as a measured pair
// (BM_Profile* vs BM_RefProfile*) rather than a claim.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <map>
#include <vector>

#include "core/profile.hpp"
#include "oracles/reference_profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace psched;

/// Build a profile with `n` random usage intervals.
template <typename ProfileT>
ProfileT make_profile(std::size_t n, util::Rng& rng) {
  ProfileT profile(1524, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Time from = rng.uniform_int(0, 500'000);
    const Time duration = rng.uniform_int(600, 86'400);
    const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, 128));
    if (profile.fits_at(from, duration, nodes)) profile.add_usage(from, from + duration, nodes);
  }
  return profile;
}

template <typename ProfileT>
void run_add_usage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ProfileT profile(1524, 0);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      const Time from = static_cast<Time>(i) * 977 % 500'000;
      profile.add_usage(from, from + 3600, 4);
    }
    benchmark::DoNotOptimize(profile.breakpoints());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_ProfileAddUsage(benchmark::State& state) { run_add_usage<Profile>(state); }
void BM_RefProfileAddUsage(benchmark::State& state) {
  run_add_usage<reference::ReferenceProfile>(state);
}
BENCHMARK(BM_ProfileAddUsage)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_RefProfileAddUsage)->Arg(64)->Arg(256)->Arg(1024);

/// `n` running jobs as a scheduling event sees them: each holds its nodes
/// from the origin (0) until a random estimated end, and together they fit
/// the 1524-node machine.
std::vector<Profile::Busy> running_jobs(std::size_t n) {
  util::Rng rng(11);
  std::vector<Profile::Busy> busy;
  for (std::size_t i = 0; i < n; ++i)
    busy.push_back({rng.uniform_int(60, 3 * 86'400),
                    static_cast<NodeCount>(rng.uniform_int(1, 1524 / static_cast<int>(n)))});
  return busy;
}

// Seeding running usage at the start of a scheduling event, two ways: one
// add_usage per job after reset(origin), and the bulk reset(origin, busy)
// every scheduler uses (the same vector, one sort).
void BM_ProfileSeedRunningPerJob(benchmark::State& state) {
  const std::vector<Profile::Busy> busy = running_jobs(static_cast<std::size_t>(state.range(0)));
  Profile profile(1524, 0);
  for (auto _ : state) {
    profile.reset(0);
    for (const Profile::Busy& b : busy) profile.add_usage(0, b.end, b.nodes);
    benchmark::DoNotOptimize(profile.breakpoints());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_ProfileSeedRunningBulk(benchmark::State& state) {
  const std::vector<Profile::Busy> busy = running_jobs(static_cast<std::size_t>(state.range(0)));
  Profile profile(1524, 0);
  for (auto _ : state) {
    profile.reset(0, busy);
    benchmark::DoNotOptimize(profile.breakpoints());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProfileSeedRunningPerJob)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ProfileSeedRunningBulk)->Arg(16)->Arg(64)->Arg(256);

template <typename ProfileT>
void run_earliest_fit(benchmark::State& state, std::uint64_t seed) {
  util::Rng rng(seed);
  ProfileT profile = make_profile<ProfileT>(static_cast<std::size_t>(state.range(0)), rng);
  Time query = 0;
  for (auto _ : state) {
    query = (query + 7919) % 500'000;
    benchmark::DoNotOptimize(profile.earliest_fit(query, 7200, 256));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ProfileEarliestFit(benchmark::State& state) { run_earliest_fit<Profile>(state, 2); }
void BM_RefProfileEarliestFit(benchmark::State& state) {
  run_earliest_fit<reference::ReferenceProfile>(state, 2);
}
BENCHMARK(BM_ProfileEarliestFit)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_RefProfileEarliestFit)->Arg(64)->Arg(256)->Arg(1024);

template <typename ProfileT>
void run_earliest_fit_contended(benchmark::State& state) {
  // A near-machine-width job hunting for a long window in a busy profile:
  // every partially blocked window forces the seed implementation to restart
  // its scan (quadratic in breakpoints); the sliding-window pass does not.
  util::Rng rng(6);
  ProfileT profile = make_profile<ProfileT>(static_cast<std::size_t>(state.range(0)), rng);
  Time query = 0;
  for (auto _ : state) {
    query = (query + 7919) % 500'000;
    benchmark::DoNotOptimize(profile.earliest_fit(query, 86'400, 1500));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ProfileEarliestFitContended(benchmark::State& state) {
  run_earliest_fit_contended<Profile>(state);
}
void BM_RefProfileEarliestFitContended(benchmark::State& state) {
  run_earliest_fit_contended<reference::ReferenceProfile>(state);
}
BENCHMARK(BM_ProfileEarliestFitContended)->Arg(256)->Arg(1024);
BENCHMARK(BM_RefProfileEarliestFitContended)->Arg(256)->Arg(1024);

// --- deep-queue cases (the ROADMAP's 10k+ reservation scenario) --------------
//
// BM_ProfileEarliestFitDeep queries a prebuilt deep profile; BM_ProfilePack
// replays the conservative replan inner loop — seat jobs from time 0 until
// `n` reservations are held — which is where deep queues spend their time.
// The optimized side seats with Profile::reserve, the seed side with
// earliest_fit followed by add_usage. The Ref pairs record the speedup over
// the seed implementation.

template <typename ProfileT>
void run_earliest_fit_deep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // The seed implementation takes a while to build a deep profile; cache the
  // built timeline across google-benchmark's calibration re-invocations.
  static std::map<std::size_t, ProfileT> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    util::Rng rng(11);
    ProfileT profile(1524, 0);
    // Dense long-horizon packing so the timeline carries ~2n live breakpoints.
    for (std::size_t i = 0; i < n; ++i) {
      const Time from = rng.uniform_int(0, static_cast<Time>(n) * 600);
      const Time duration = rng.uniform_int(600, 86'400);
      const auto nodes = static_cast<NodeCount>(rng.uniform_int(1, 96));
      if (profile.fits_at(from, duration, nodes)) profile.add_usage(from, from + duration, nodes);
    }
    it = cache.emplace(n, std::move(profile)).first;
  }
  const ProfileT& profile = it->second;
  Time query = 0;
  const Time horizon = static_cast<Time>(n) * 600;
  for (auto _ : state) {
    query = (query + 7919) % horizon;
    benchmark::DoNotOptimize(profile.earliest_fit(query, 43'200, 1400));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ProfileEarliestFitDeep(benchmark::State& state) {
  run_earliest_fit_deep<Profile>(state);
}
void BM_RefProfileEarliestFitDeep(benchmark::State& state) {
  run_earliest_fit_deep<reference::ReferenceProfile>(state);
}
BENCHMARK(BM_ProfileEarliestFitDeep)->Arg(4096)->Arg(16384)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RefProfileEarliestFitDeep)->Arg(4096)->Arg(16384)->Unit(benchmark::kMicrosecond);

Time seat_from_zero(Profile& profile, Time duration, NodeCount nodes) {
  return profile.reserve(0, duration, nodes);
}
Time seat_from_zero(reference::ReferenceProfile& profile, Time duration, NodeCount nodes) {
  const Time at = profile.earliest_fit(0, duration, nodes);
  profile.add_usage(at, at + duration, nodes);
  return at;
}

template <typename ProfileT>
void run_pack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng shapes_rng(9001);
  std::vector<NodeCount> widths;
  std::vector<Time> lengths;
  widths.reserve(n);
  lengths.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    widths.push_back(static_cast<NodeCount>(shapes_rng.uniform_int(1, 96)));
    lengths.push_back(shapes_rng.uniform_int(300, 36'000));
  }
  for (auto _ : state) {
    state.PauseTiming();
    ProfileT profile(512, 0);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) seat_from_zero(profile, lengths[i], widths[i]);
    benchmark::DoNotOptimize(profile.breakpoints());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_ProfilePack(benchmark::State& state) { run_pack<Profile>(state); }
void BM_RefProfilePack(benchmark::State& state) {
  run_pack<reference::ReferenceProfile>(state);
}
// The seed pair stops at 4096 (its quadratic restart scan already needs
// seconds per pass there).
BENCHMARK(BM_ProfilePack)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RefProfilePack)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

template <typename ProfileT>
void run_fits_at(benchmark::State& state, std::uint64_t seed) {
  util::Rng rng(seed);
  ProfileT profile = make_profile<ProfileT>(static_cast<std::size_t>(state.range(0)), rng);
  Time query = 0;
  for (auto _ : state) {
    query = (query + 104729) % 500'000;
    benchmark::DoNotOptimize(profile.fits_at(query, 3600, 64));
  }
  state.SetItemsProcessed(state.iterations());
}

// This pair reads about 0.85-0.95x, within a few ns per call. Both sides run
// the same scan after a binary search. The optimized step_index first probes
// its cursor hint, and these random-stride queries never hit it, so the hint
// is pure overhead here. Scheduler scans are monotone and do hit it (the
// EarliestFit pairs above).
void BM_ProfileFitsAt(benchmark::State& state) { run_fits_at<Profile>(state, 3); }
void BM_RefProfileFitsAt(benchmark::State& state) {
  run_fits_at<reference::ReferenceProfile>(state, 3);
}
BENCHMARK(BM_ProfileFitsAt)->Arg(64)->Arg(1024);
BENCHMARK(BM_RefProfileFitsAt)->Arg(64)->Arg(1024);

template <typename ProfileT>
void run_reserve_release(benchmark::State& state) {
  util::Rng rng(4);
  ProfileT profile = make_profile<ProfileT>(256, rng);
  for (auto _ : state) {
    const Time slot = profile.earliest_fit(10'000, 7200, 128);
    profile.add_usage(slot, slot + 7200, 128);
    profile.remove_usage(slot, slot + 7200, 128);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ProfileReserveRelease(benchmark::State& state) { run_reserve_release<Profile>(state); }
void BM_RefProfileReserveRelease(benchmark::State& state) {
  run_reserve_release<reference::ReferenceProfile>(state);
}
BENCHMARK(BM_ProfileReserveRelease);
BENCHMARK(BM_RefProfileReserveRelease);

}  // namespace
