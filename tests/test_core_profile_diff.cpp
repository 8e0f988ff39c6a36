// Differential/property tests: the optimized hot-path Profile and
// ListScheduler must be observably identical to the preserved seed
// implementations (oracles/reference_profile.hpp) on randomized operation
// sequences. These are the guardrails that let the hot path be rewritten
// aggressively.

#include <gtest/gtest.h>

#include <vector>

#include "core/list_scheduler.hpp"
#include "core/profile.hpp"
#include "oracles/reference_profile.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

struct Interval {
  Time from;
  Time to;
  NodeCount nodes;
};

/// Drive both profiles through one random op; returns the interval if an
/// add succeeded (so the caller can later remove it).
template <typename P>
bool try_add(P& p, const Interval& iv) {
  try {
    p.add_usage(iv.from, iv.to, iv.nodes);
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

TEST(ProfileDiff, RandomAddRemoveMatchesReference) {
  util::Rng rng(12345);
  for (int round = 0; round < 20; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 2048));
    Profile opt(capacity, 0);
    reference::ReferenceProfile ref(capacity, 0);
    std::vector<Interval> live;

    for (int op = 0; op < 400; ++op) {
      const double dice = rng.uniform01();
      bool compare_structure = true;
      if (dice < 0.55 || live.empty()) {
        Interval iv;
        iv.from = rng.uniform_int(0, 400'000);
        iv.to = iv.from + rng.uniform_int(1, 100'000);
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        const bool ok_opt = try_add(opt, iv);
        const bool ok_ref = try_add(ref, iv);
        ASSERT_EQ(ok_opt, ok_ref) << "add acceptance diverged at op " << op;
        if (ok_opt) live.push_back(iv);
        // A rejected add leaves stray (inert) breakpoints in the reference
        // until its next mutation sweeps them; free counts stay identical.
        compare_structure = ok_opt;
      } else {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
      }
      // Structural equality: identical breakpoints, identical free counts.
      if (compare_structure) {
        ASSERT_EQ(opt.debug_string(), ref.debug_string()) << "diverged at op " << op;
      }
      ASSERT_NO_THROW(opt.check_invariants());

      // Point and window queries at random times.
      for (int q = 0; q < 4; ++q) {
        const Time t = rng.uniform_int(0, 600'000);
        ASSERT_EQ(opt.free_at(t), ref.free_at(t));
        const Time dur = rng.uniform_int(1, 150'000);
        const NodeCount w = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        ASSERT_EQ(opt.fits_at(t, dur, w), ref.fits_at(t, dur, w));
        ASSERT_EQ(opt.earliest_fit(t, dur, w), ref.earliest_fit(t, dur, w))
            << "earliest_fit diverged at op " << op << " t=" << t << " dur=" << dur
            << " w=" << w;
      }
    }
  }
}

TEST(ProfileDiff, MonotoneScanMatchesReference) {
  // The cursor hint is tuned for monotone scans; sweep queries forward in
  // time like a scheduler does and check every answer.
  util::Rng rng(777);
  const NodeCount capacity = 512;
  Profile opt(capacity, 0);
  reference::ReferenceProfile ref(capacity, 0);
  for (int i = 0; i < 300; ++i) {
    const Time from = rng.uniform_int(0, 500'000);
    const Time to = from + rng.uniform_int(600, 90'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 64));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
    }
  }
  for (Time t = 0; t < 600'000; t += 731) {
    ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
    ASSERT_EQ(opt.earliest_fit(t, 3600, 128), ref.earliest_fit(t, 3600, 128)) << t;
  }
  // And a backward jump after a long forward scan.
  ASSERT_EQ(opt.free_at(100), ref.free_at(100));
  ASSERT_EQ(opt.earliest_fit(0, 7200, 500), ref.earliest_fit(0, 7200, 500));
}

TEST(ProfileDiff, BatchedMutationsMatchUnbatchedReference) {
  util::Rng rng(4242);
  const NodeCount capacity = 256;
  for (int round = 0; round < 10; ++round) {
    Profile opt(capacity, 0);
    reference::ReferenceProfile ref(capacity, 0);
    opt.begin_batch();
    for (int i = 0; i < 200; ++i) {
      const Time from = rng.uniform_int(0, 200'000);
      const Time to = from + rng.uniform_int(60, 50'000);
      const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 32));
      if (ref.fits_at(from, to - from, nodes)) {
        opt.add_usage(from, to, nodes);
        ref.add_usage(from, to, nodes);
      }
      // Queries must stay exact inside the batch.
      const Time t = rng.uniform_int(0, 250'000);
      ASSERT_EQ(opt.free_at(t), ref.free_at(t));
      ASSERT_EQ(opt.earliest_fit(t, 1800, 16), ref.earliest_fit(t, 1800, 16));
    }
    opt.end_batch();
    // After commit the structures are identical (one normalization pass).
    ASSERT_EQ(opt.debug_string(), ref.debug_string());
  }
}

TEST(ProfileDiff, FailedAddLeavesNoTrace) {
  Profile opt(10, 0);
  reference::ReferenceProfile ref(10, 0);
  opt.add_usage(100, 200, 8);
  ref.add_usage(100, 200, 8);
  EXPECT_THROW(opt.add_usage(50, 150, 5), std::logic_error);
  EXPECT_THROW(ref.add_usage(50, 150, 5), std::logic_error);
  // The optimized profile cleans its validation breakpoints up eagerly; the
  // reference sweeps them on its next mutation. Free counts agree always.
  for (Time t = 0; t < 300; ++t) ASSERT_EQ(opt.free_at(t), ref.free_at(t));
  opt.add_usage(0, 50, 1);
  ref.add_usage(0, 50, 1);
  ASSERT_EQ(opt.debug_string(), ref.debug_string());
}

TEST(ProfileDiff, AdvanceOriginPreservesFuture) {
  util::Rng rng(99);
  Profile opt(128, 0);
  reference::ReferenceProfile ref(128, 0);
  for (int i = 0; i < 100; ++i) {
    const Time from = rng.uniform_int(0, 100'000);
    const Time to = from + rng.uniform_int(60, 30'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 16));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
    }
  }
  const Time cut = 50'000;
  opt.advance_origin(cut);
  EXPECT_EQ(opt.origin(), cut);
  ASSERT_NO_THROW(opt.check_invariants());
  for (Time t = cut; t < 150'000; t += 97) ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
  EXPECT_THROW(opt.free_at(cut - 1), std::logic_error);
  // Moving backwards (or to the same origin) is a no-op.
  const std::string before = opt.debug_string();
  opt.advance_origin(cut - 1000);
  EXPECT_EQ(opt.debug_string(), before);
}

TEST(ListSchedulerDiff, RandomOpsMatchReference) {
  util::Rng rng(31337);
  for (int round = 0; round < 30; ++round) {
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(2, 2048));
    ListScheduler opt(nodes, 0);
    reference::ReferenceListScheduler ref(nodes, 0);
    for (int op = 0; op < 200; ++op) {
      const double dice = rng.uniform01();
      const NodeCount width = static_cast<NodeCount>(rng.uniform_int(1, nodes));
      if (dice < 0.3) {
        const Time until = rng.uniform_int(0, 500'000);
        opt.occupy(width, until);
        ref.occupy(width, until);
      } else if (dice < 0.8) {
        const Time dur = rng.uniform_int(0, 90'000);
        const Time earliest = rng.uniform_int(0, 200'000);
        ASSERT_EQ(opt.schedule(width, dur, earliest), ref.schedule(width, dur, earliest))
            << "schedule diverged at round " << round << " op " << op;
      } else {
        const Time earliest = rng.uniform_int(0, 200'000);
        ASSERT_EQ(opt.peek_start(width, earliest), ref.peek_start(width, earliest));
      }
      ASSERT_EQ(opt.earliest_available(), ref.earliest_available());
      ASSERT_EQ(opt.node_count(), ref.node_count());
    }
  }
}

TEST(ListSchedulerDiff, ResetMatchesFreshInstance) {
  ListScheduler reused(64, 0);
  reused.schedule(32, 1000, 0);
  reused.occupy(16, 500);
  reused.reset(42);
  ListScheduler fresh(64, 42);
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const NodeCount width = static_cast<NodeCount>(rng.uniform_int(1, 64));
    const Time dur = rng.uniform_int(0, 10'000);
    ASSERT_EQ(reused.schedule(width, dur, 42), fresh.schedule(width, dur, 42));
  }
}

}  // namespace
}  // namespace psched
