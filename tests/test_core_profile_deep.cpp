// Deep-profile coverage: the linear earliest_fit/fits_at scan must match the
// preserved seed implementation (reference::ReferenceProfile) on deep plans,
// across advance_origin, with far-future breakpoints, and on
// both sides of a copy. End-to-end deep replans are pinned against the seed
// algorithm in tests/test_sched_determinism.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "oracles/reference_profile.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

struct Interval {
  Time from, to;
  NodeCount nodes;
};

TEST(ProfileDeep, RandomOpsMatchReference) {
  util::Rng rng(20260729);
  for (int round = 0; round < 10; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 1024));
    Profile opt(capacity, 0);
    reference::ReferenceProfile ref(capacity, 0);
    std::vector<Interval> live;
    for (int op = 0; op < 300; ++op) {
      if (rng.uniform01() < 0.6 || live.empty()) {
        Interval iv;
        iv.from = rng.uniform_int(0, 300'000);
        iv.to = iv.from + rng.uniform_int(1, 80'000);
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        bool ok_opt = true, ok_ref = true;
        try {
          opt.add_usage(iv.from, iv.to, iv.nodes);
        } catch (const std::logic_error&) {
          ok_opt = false;
        }
        try {
          ref.add_usage(iv.from, iv.to, iv.nodes);
        } catch (const std::logic_error&) {
          ok_ref = false;
        }
        ASSERT_EQ(ok_opt, ok_ref) << "acceptance diverged at op " << op;
        if (ok_opt) live.push_back(iv);
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
      }
      ASSERT_NO_THROW(opt.check_invariants());
      for (int q = 0; q < 4; ++q) {
        const Time t = rng.uniform_int(0, 400'000);
        const Time dur = rng.uniform_int(1, 120'000);
        const NodeCount w = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        ASSERT_EQ(opt.free_at(t), ref.free_at(t));
        ASSERT_EQ(opt.fits_at(t, dur, w), ref.fits_at(t, dur, w));
        ASSERT_EQ(opt.earliest_fit(t, dur, w), ref.earliest_fit(t, dur, w))
            << "op " << op << " t=" << t << " dur=" << dur << " w=" << w;
      }
    }
  }
}

TEST(ProfileDeep, AdvanceOriginMatchesReference) {
  util::Rng rng(55);
  Profile opt(256, 0);
  reference::ReferenceProfile ref(256, 0);
  std::vector<Interval> seated;
  for (int i = 0; i < 400; ++i) {
    const Time from = rng.uniform_int(0, 250'000);
    const Time to = from + rng.uniform_int(60, 40'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 24));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
      seated.push_back({from, to, nodes});
    }
    const Time t = rng.uniform_int(0, 300'000);
    ASSERT_EQ(opt.earliest_fit(t, 3600, 64), ref.earliest_fit(t, 3600, 64));
  }
  ASSERT_EQ(opt.debug_string(), ref.debug_string());

  // advance_origin drops a prefix: the rest of the timeline must equal a
  // reference built from scratch at the new origin over the clipped usage.
  const Time cut = 120'000;
  opt.advance_origin(cut);
  ASSERT_NO_THROW(opt.check_invariants());
  reference::ReferenceProfile clipped(256, cut);
  for (const Interval& iv : seated)
    if (iv.to > cut) clipped.add_usage(std::max(iv.from, cut), iv.to, iv.nodes);
  ASSERT_EQ(opt.debug_string(), clipped.debug_string());
  for (Time t = cut; t < 320'000; t += 503) {
    ASSERT_EQ(opt.free_at(t), ref.free_at(t)) << t;
    ASSERT_EQ(opt.earliest_fit(t, 7200, 128), ref.earliest_fit(t, 7200, 128)) << t;
  }
}

TEST(ProfileDeep, FarFutureReservationMatchesReference) {
  // One reservation ~35k years out on a dense plan: the scan must walk the
  // huge empty gap in one step and stay exact as the horizon grows and
  // collapses again.
  util::Rng rng(7);
  Profile opt(1024, 0);
  reference::ReferenceProfile ref(1024, 0);
  for (int i = 0; i < 2000; ++i) {
    const Time from = rng.uniform_int(0, 1'200'000);
    const Time to = from + rng.uniform_int(60, 40'000);
    const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, 64));
    if (ref.fits_at(from, to - from, nodes)) {
      opt.add_usage(from, to, nodes);
      ref.add_usage(from, to, nodes);
    }
  }
  const Time far = Time{1} << 40;
  opt.add_usage(far, far + 100, 1024);
  ref.add_usage(far, far + 100, 1024);
  for (Time t = 0; t < 1'400'000; t += 37'003) {
    ASSERT_EQ(opt.earliest_fit(t, 3600, 512), ref.earliest_fit(t, 3600, 512)) << t;
  }
  ASSERT_EQ(opt.earliest_fit(far - 50, 200, 1024), ref.earliest_fit(far - 50, 200, 1024));
  ASSERT_EQ(opt.fits_at(far - 50, 200, 1), ref.fits_at(far - 50, 200, 1));
  ASSERT_EQ(opt.free_at(far + 50), ref.free_at(far + 50));

  opt.remove_usage(far, far + 100, 1024);
  ref.remove_usage(far, far + 100, 1024);
  ASSERT_EQ(opt.debug_string(), ref.debug_string());
  for (Time t = 0; t < 1'400'000; t += 37'003) {
    ASSERT_EQ(opt.earliest_fit(t, 3600, 512), ref.earliest_fit(t, 3600, 512)) << t;
    ASSERT_EQ(opt.fits_at(t, 7200, 256), ref.fits_at(t, 7200, 256)) << t;
  }
}

TEST(ProfileDeep, DeepPackMatchesReference) {
  // The replan inner loop on a deep plan: alternate earliest_fit and
  // add_usage until the profile holds 5000 seated jobs. Every slot and the
  // final breakpoint array must equal the seed implementation's.
  util::Rng rng(9001);
  Profile opt(512, 0);
  reference::ReferenceProfile ref(512, 0);
  for (int i = 0; i < 5000; ++i) {
    const NodeCount width = static_cast<NodeCount>(rng.uniform_int(1, 96));
    const Time length = rng.uniform_int(300, 36'000);
    const Time at = opt.earliest_fit(0, length, width);
    ASSERT_EQ(at, ref.earliest_fit(0, length, width)) << "slot diverged for job " << i;
    opt.add_usage(at, at + length, width);
    ref.add_usage(at, at + length, width);
  }
  opt.check_invariants();
  EXPECT_GT(opt.breakpoints(), 1000u);  // deep enough to matter
  EXPECT_EQ(opt.debug_string(), ref.debug_string());
}

TEST(ProfileDeep, CopiesAreIndependentAndMatchReplays) {
  // Pins the copy semantics the forkable engine depends on (the conservative
  // clone() copies its persistent plan profile wholesale): after a copy of a
  // deep profile, divergent mutation histories must not leak between the
  // copies in either direction. Each side must equal a fresh seed profile
  // that replays its whole history.
  util::Rng rng(20260730);
  const auto random_op = [&rng] {
    Interval op;
    op.from = rng.uniform_int(0, 900'000);
    op.to = op.from + rng.uniform_int(60, 50'000);
    op.nodes = static_cast<NodeCount>(rng.uniform_int(1, 48));
    return op;
  };
  const auto apply = [](auto& profile, const std::vector<Interval>& ops) {
    for (const Interval& op : ops)
      if (profile.fits_at(op.from, op.to - op.from, op.nodes))
        profile.add_usage(op.from, op.to, op.nodes);
  };
  // Deterministic query probe: earliest_fit sweep at several widths, plus the
  // final breakpoint shape. Byte-comparable across implementations.
  const auto probe = [](const auto& profile) {
    std::string out;
    for (Time t = 0; t < 1'000'000; t += 43'067)
      for (const NodeCount w : {NodeCount{3}, NodeCount{60}, NodeCount{250}})
        out += std::to_string(profile.earliest_fit(t, 7200, w)) + ",";
    return out + profile.debug_string();
  };

  std::vector<Interval> base;
  for (int i = 0; i < 3000; ++i) base.push_back(random_op());
  Profile original(256, 0);
  apply(original, base);
  original.earliest_fit(0, 3600, 200);  // move the cursor hint before copying

  Profile copy = original;

  std::vector<Interval> tail_a, tail_b;
  for (int i = 0; i < 200; ++i) tail_a.push_back(random_op());
  for (int i = 0; i < 200; ++i) tail_b.push_back(random_op());
  apply(original, tail_a);
  apply(copy, tail_b);
  original.check_invariants();
  copy.check_invariants();

  const auto replay = [&](const std::vector<Interval>& tail) {
    reference::ReferenceProfile ref(256, 0);
    apply(ref, base);
    apply(ref, tail);
    return probe(ref);
  };
  EXPECT_EQ(probe(original), replay(tail_a));
  EXPECT_EQ(probe(copy), replay(tail_b));
}

}  // namespace
}  // namespace psched
