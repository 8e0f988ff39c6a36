// Differential/property tests: the optimized hot-path Profile and
// ListScheduler must be observably identical to the preserved seed
// implementations (oracles/reference_profile.hpp) on randomized operation
// sequences. These are the guardrails that let the hot path be rewritten
// aggressively.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
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

/// Breakpoint times of a profile, parsed from its debug_string.
std::vector<Time> breakpoint_times(const std::string& debug) {
  std::vector<Time> times;
  for (std::size_t at = debug.find('['); at != std::string::npos; at = debug.find('[', at + 1))
    times.push_back(std::stoll(debug.substr(at + 1)));
  return times;
}

TEST(ProfileDiff, ReserveMatchesEarliestFitPlusAddUsage) {
  // reserve() must return earliest_fit's slot and leave exactly the vector
  // add_usage leaves. `split` is an optimized Profile seated the two-call
  // way; `ref` is the seed oracle. Half the rounds put every time on a 100 s grid so windows often
  // end exactly on a breakpoint, and some calls aim a window's end at the
  // next step; `earliest` is mostly off-grid (mid-step).
  util::Rng rng(20261017);
  int mid_step = 0, ends_on_breakpoint = 0, into_tail = 0;
  for (int round = 0; round < 24; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 512));
    const Time origin = 500;
    const bool grid = round % 2 == 0;
    const auto time_at = [&](Time lo, Time hi) {
      const Time t = rng.uniform_int(lo, hi);
      return grid ? t - t % 100 : t;
    };
    Profile opt(capacity, origin);
    Profile split(capacity, origin);
    reference::ReferenceProfile ref(capacity, origin);
    std::vector<Interval> live;
    for (int op = 0; op < 300; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.2) {
        Interval iv;
        iv.from = time_at(origin, 40'000);
        iv.to = iv.from + std::max<Time>(100, time_at(0, 8'000));
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        if (ref.fits_at(iv.from, iv.to - iv.from, iv.nodes)) {
          opt.add_usage(iv.from, iv.to, iv.nodes);
          split.add_usage(iv.from, iv.to, iv.nodes);
          ref.add_usage(iv.from, iv.to, iv.nodes);
          live.push_back(iv);
        }
      } else if (dice < 0.35 && !live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        split.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
      } else {
        const std::vector<Time> before = breakpoint_times(ref.debug_string());
        const Time earliest = rng.uniform_int(0, 45'000);  // may precede origin
        Time duration = std::max<Time>(1, time_at(0, 6'000));
        const auto next = std::upper_bound(before.begin(), before.end(), earliest);
        if (next != before.end() && rng.uniform01() < 0.3)
          duration = *next - std::max(earliest, origin);  // a window ending on a step
        const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        const Time expected = ref.earliest_fit(earliest, duration, nodes);
        ASSERT_EQ(split.earliest_fit(earliest, duration, nodes), expected);
        const Time slot = opt.reserve(earliest, duration, nodes);
        ASSERT_EQ(slot, expected) << "reserve slot diverged at round " << round << " op " << op;
        split.add_usage(slot, slot + duration, nodes);
        ref.add_usage(slot, slot + duration, nodes);
        live.push_back({slot, slot + duration, nodes});
        const Time end = slot + duration;
        if (earliest > origin && !std::binary_search(before.begin(), before.end(), earliest))
          ++mid_step;
        if (std::binary_search(before.begin(), before.end(), end)) ++ends_on_breakpoint;
        if (end > before.back()) ++into_tail;
      }
      ASSERT_EQ(opt.debug_string(), split.debug_string()) << "round " << round << " op " << op;
      ASSERT_EQ(opt.debug_string(), ref.debug_string()) << "op " << op;
      ASSERT_NO_THROW(opt.check_invariants());
    }

    // Empty requests seat nothing and answer like earliest_fit.
    const std::string held = opt.debug_string();
    EXPECT_EQ(opt.reserve(100, 3600, 0), origin);
    EXPECT_EQ(opt.reserve(9'000, 0, 1), 9'000);
    EXPECT_EQ(opt.reserve(9'000, -5, 1), ref.earliest_fit(9'000, -5, 1));
    EXPECT_THROW(opt.reserve(0, 3600, capacity + 1), std::invalid_argument);
    EXPECT_THROW(opt.reserve(0, 3600, -1), std::invalid_argument);
    EXPECT_EQ(opt.debug_string(), held);
  }
  // Every case named above came up often (the sequence is deterministic).
  EXPECT_GT(mid_step, 200);
  EXPECT_GT(ends_on_breakpoint, 200);
  EXPECT_GT(into_tail, 200);
}

TEST(ProfileDiff, ReserveWithSkipRange) {
  // A skip range that holds no feasible start must not change reserve():
  // `opt` seats with the range, `plain` without it, `ref` (the seed oracle)
  // with earliest_fit + add_usage, and all three must agree on the slot and
  // the vector. Ranges are drawn as: empty (from >= to); ending exactly at
  // the earliest fit, so the fit starts at `to`; holding `earliest`;
  // anywhere at all; and ending past the last breakpoint (with `earliest`
  // past it too, since every start there fits). A drawn range that does
  // hold a feasible start checks the documented fallback instead: the seat
  // moves to the earliest fit at or after `to`.
  util::Rng rng(20261018);
  int empty = 0, fit_at_to = 0, earliest_inside = 0, to_at_tail = 0, to_past_last = 0,
      fallback = 0;
  for (int round = 0; round < 24; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 256));
    const Time origin = 500;
    const bool grid = round % 2 == 0;
    const auto time_at = [&](Time lo, Time hi) {
      const Time t = rng.uniform_int(lo, hi);
      return grid ? t - t % 100 : t;
    };
    Profile opt(capacity, origin);
    Profile plain(capacity, origin);
    reference::ReferenceProfile ref(capacity, origin);
    std::vector<Interval> live;
    for (int op = 0; op < 300; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.2) {
        Interval iv;
        iv.from = time_at(origin, 40'000);
        iv.to = iv.from + std::max<Time>(100, time_at(0, 8'000));
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        if (ref.fits_at(iv.from, iv.to - iv.from, iv.nodes)) {
          opt.add_usage(iv.from, iv.to, iv.nodes);
          plain.add_usage(iv.from, iv.to, iv.nodes);
          ref.add_usage(iv.from, iv.to, iv.nodes);
          live.push_back(iv);
        }
      } else if (dice < 0.35 && !live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        plain.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
      } else {
        const Time last = breakpoint_times(ref.debug_string()).back();
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        // Kind 4 starts past the last breakpoint, where every start fits.
        const Time earliest = kind == 4 ? last + rng.uniform_int(1, 3'000)
                                        : rng.uniform_int(0, 45'000);  // may precede origin
        const Time duration = std::max<Time>(1, time_at(0, 6'000));
        const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        const Time lowest = std::max(earliest, origin);
        const Time expected = ref.earliest_fit(earliest, duration, nodes);
        Time from = 0, to = 0;
        switch (kind) {
          case 0:  // empty
            from = time_at(0, 45'000);
            to = from - time_at(0, 3'000);
            break;
          case 1:  // the fit starts exactly at `to`
            from = rng.uniform_int(0, expected);
            to = expected;
            break;
          case 2:  // `earliest` inside the range
            from = rng.uniform_int(0, lowest);
            to = std::max(expected, lowest + 1);
            break;
          case 3:  // anywhere
            from = time_at(0, 45'000);
            to = from + time_at(1, 20'000);
            break;
          default:  // ending past the last breakpoint, at or before `earliest`
            to = rng.uniform_int(last + 1, lowest);
            from = rng.uniform_int(0, to - 1);
            break;
        }
        // The range holds no feasible start iff the first one at or after
        // its start lies at or after its end.
        const bool holds_fit = from < to && to > lowest &&
                               ref.earliest_fit(std::max(from, lowest), duration, nodes) < to;
        const Time want =
            holds_fit && expected >= from ? ref.earliest_fit(to, duration, nodes) : expected;
        const Time slot = opt.reserve(earliest, duration, nodes, from, to);
        ASSERT_EQ(slot, want) << "round " << round << " op " << op << " skip [" << from << ", "
                              << to << ")";
        if (holds_fit) {
          ++fallback;
          plain.add_usage(slot, slot + duration, nodes);
        } else {
          ASSERT_EQ(plain.reserve(earliest, duration, nodes), slot);
          if (from >= to) ++empty;
          if (from < to && to == expected) ++fit_at_to;
          if (from <= lowest && lowest < to) ++earliest_inside;
          if (from < to && to >= last) ++(to > last ? to_past_last : to_at_tail);
        }
        ref.add_usage(slot, slot + duration, nodes);
        live.push_back({slot, slot + duration, nodes});
      }
      ASSERT_EQ(opt.debug_string(), plain.debug_string()) << "round " << round << " op " << op;
      ASSERT_EQ(opt.debug_string(), ref.debug_string()) << "round " << round << " op " << op;
      ASSERT_NO_THROW(opt.check_invariants());
    }
  }
  // Every case named above came up (the sequence is deterministic).
  EXPECT_GT(empty, 200);
  EXPECT_GT(fit_at_to, 200);
  EXPECT_GT(earliest_inside, 200);
  EXPECT_GT(to_at_tail, 100);
  EXPECT_GT(to_past_last, 200);
  EXPECT_GT(fallback, 100);
}

TEST(ProfileDiff, EarliestFitBeforeMatchesBruteForce) {
  // earliest_fit_before() against a brute force on the seed oracle: the
  // first start in [from, min(to, clip)) whose window, clipped at `clip`,
  // fits. The candidates are `from` and the breakpoints after it, since a
  // clipped window only gains steps as its start moves later. Queries are
  // drawn as: a live interval asking for an earlier start (clip at its
  // start, its length and width), whose answer must also be its earliest
  // fit once removed, when that lies before min(to, clip); a range inside
  // one step; a range on the tail step; anywhere at all; and empty.
  util::Rng rng(20261019);
  int own = 0, empty = 0, fit_at_clip = 0, single_step = 0, at_tail = 0, none = 0;
  for (int round = 0; round < 24; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 256));
    const Time origin = 500;
    const bool grid = round % 2 == 0;
    const auto time_at = [&](Time lo, Time hi) {
      const Time t = rng.uniform_int(lo, hi);
      return grid ? t - t % 100 : t;
    };
    Profile opt(capacity, origin);
    reference::ReferenceProfile ref(capacity, origin);
    std::vector<Interval> live;
    for (int op = 0; op < 300; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.3) {
        Interval iv;
        iv.from = time_at(origin, 40'000);
        iv.to = iv.from + std::max<Time>(100, time_at(0, 8'000));
        iv.nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
        if (ref.fits_at(iv.from, iv.to - iv.from, iv.nodes)) {
          opt.add_usage(iv.from, iv.to, iv.nodes);
          ref.add_usage(iv.from, iv.to, iv.nodes);
          live.push_back(iv);
        }
        continue;
      }
      if (dice < 0.4 && !live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        opt.remove_usage(iv.from, iv.to, iv.nodes);
        ref.remove_usage(iv.from, iv.to, iv.nodes);
        continue;
      }
      const std::vector<Time> steps = breakpoint_times(ref.debug_string());
      const Time last = steps.back();
      const int kind = static_cast<int>(rng.uniform_int(live.empty() ? 1 : 0, 4));
      Time from = 0, to = 0, clip = 0;
      Time duration = std::max<Time>(1, time_at(0, 6'000));
      NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(1, capacity));
      const Interval* job = nullptr;
      switch (kind) {
        case 0: {  // a live interval asking for an earlier start
          job = &live[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
          clip = job->from;
          duration = job->to - job->from;
          nodes = job->nodes;
          from = rng.uniform_int(0, clip);
          to = rng.uniform_int(from, clip + 2'000);
          break;
        }
        case 1: {  // inside one step
          const std::size_t k = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(steps.size()) - 1));
          const Time next = k + 1 < steps.size() ? steps[k + 1] : steps[k] + 5'000;
          from = rng.uniform_int(steps[k], next - 1);
          to = rng.uniform_int(from + 1, next);
          clip = to + time_at(0, 3'000);
          break;
        }
        case 2:  // on the tail step
          from = last + rng.uniform_int(0, 3'000);
          to = from + rng.uniform_int(1, 3'000);
          clip = to + rng.uniform_int(0, 3'000);
          break;
        case 3:  // anywhere
          from = rng.uniform_int(0, 45'000);
          to = from + time_at(1, 20'000);
          clip = from + time_at(1, 20'000);
          break;
        default:  // empty
          from = rng.uniform_int(0, 45'000);
          to = from - time_at(0, 3'000);
          clip = rng.uniform_int(0, 1) == 0 ? to + 1'000 : from - time_at(0, 3'000);
          if (rng.uniform_int(0, 1) == 0) std::swap(to, clip);
          break;
      }
      const Time lo = std::max(from, origin);
      const Time hi = std::min(to, clip);
      std::optional<Time> expected;
      for (Time t = lo; t < hi && !expected;) {
        if (ref.fits_at(t, std::min(t + duration, clip) - t, nodes)) expected = t;
        const auto next = std::upper_bound(steps.begin(), steps.end(), t);
        if (next == steps.end()) break;
        t = *next;
      }
      const std::optional<Time> got = opt.earliest_fit_before(from, to, duration, nodes, clip);
      ASSERT_EQ(got, expected) << "round " << round << " op " << op << " [" << from << ", "
                               << to << ") clip " << clip;
      if (job) {
        ++own;
        reference::ReferenceProfile without = ref;
        without.remove_usage(job->from, job->to, job->nodes);
        const Time fit = without.earliest_fit(from, duration, nodes);
        ASSERT_EQ(got, fit < hi ? std::optional<Time>(fit) : std::nullopt)
            << "round " << round << " op " << op;
      }
      if (lo >= hi) {
        ++empty;
      } else {
        if (std::upper_bound(steps.begin(), steps.end(), lo) ==
            std::lower_bound(steps.begin(), steps.end(), hi))
          ++single_step;
        if (!got) ++none;
        if (got && *got + duration > clip && !ref.fits_at(*got, duration, nodes)) ++fit_at_clip;
        if (got && *got >= last) ++at_tail;
      }
    }
  }
  // Every case named above came up (the sequence is deterministic).
  EXPECT_GT(own, 500);
  EXPECT_GT(empty, 500);
  EXPECT_GT(single_step, 1000);
  EXPECT_GT(fit_at_clip, 100);  // the window fits only because it is clipped
  EXPECT_GT(at_tail, 500);
  EXPECT_GT(none, 300);
}

TEST(ProfileDiff, BulkResetAndTryAddUsageMatchPerCallSpelling) {
  // Two diffs against the per-call spelling (itself diffed against the seed
  // oracle above):
  //   * reset(origin, busy) against reset(origin) plus one
  //     add_usage(origin, end, nodes) per entry, on entries that end before
  //     or at the origin, carry zero nodes, share an end, and come unsorted;
  //   * try_add_usage against fits_at + add_usage: the same answer and the
  //     same vector, and a false return leaves the vector as it was, also
  //     for windows that start or end mid-step.
  util::Rng rng(20261019);
  int ends_before = 0, ends_at = 0, zero_nodes = 0, equal_ends = 0, unsorted = 0;
  int accepted = 0, rejected = 0, rejected_mid_start = 0, rejected_mid_end = 0;
  for (int round = 0; round < 40; ++round) {
    const NodeCount capacity = static_cast<NodeCount>(rng.uniform_int(4, 512));
    const Time origin = rng.uniform_int(0, 10'000);
    const bool grid = round % 2 == 0;
    const auto time_at = [&](Time lo, Time hi) {
      const Time t = rng.uniform_int(lo, hi);
      return grid ? t - t % 100 : t;
    };

    std::vector<Profile::Busy> busy;
    NodeCount left = capacity;
    const auto jobs = rng.uniform_int(0, 40);
    for (std::int64_t j = 0; j < jobs; ++j) {
      const double dice = rng.uniform01();
      Time end = origin + std::max<Time>(1, time_at(0, 50'000));
      if (dice < 0.1) {
        end = rng.uniform01() < 0.5 ? origin : origin - rng.uniform_int(1, 5'000);
        ++(end < origin ? ends_before : ends_at);
      } else if (dice < 0.25 && !busy.empty()) {
        end = busy[static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<std::int64_t>(busy.size()) - 1))]
                  .end;
      }
      NodeCount nodes = 0;
      if (rng.uniform01() < 0.1)
        ++zero_nodes;
      else
        nodes = static_cast<NodeCount>(rng.uniform_int(0, std::max<NodeCount>(0, left / 4)));
      if (end > origin) left -= nodes;
      for (const Profile::Busy& b : busy)
        if (b.end == end && end > origin && nodes > 0 && b.nodes > 0) {
          ++equal_ends;
          break;
        }
      busy.push_back({end, nodes});
    }
    if (!std::is_sorted(busy.begin(), busy.end(),
                        [](const Profile::Busy& a, const Profile::Busy& b) { return a.end < b.end; }))
      ++unsorted;

    // A profile with other usage in it, so the bulk reset must clear it.
    Profile bulk(capacity, origin + 50);
    bulk.add_usage(origin + 60, origin + 70'000, 1);
    bulk.reset(origin, busy);
    const auto add_each = [origin](Profile& profile, const std::vector<Profile::Busy>& list) {
      for (const Profile::Busy& b : list) profile.add_usage(origin, b.end, b.nodes);
    };
    Profile per_call(capacity, origin);
    add_each(per_call, busy);
    ASSERT_EQ(bulk.debug_string(), per_call.debug_string()) << "round " << round;
    ASSERT_NO_THROW(bulk.check_invariants());

    // try_add_usage on `bulk`, fits_at + add_usage on `per_call`.
    std::vector<Interval> live;
    for (int op = 0; op < 150; ++op) {
      if (rng.uniform01() < 0.25 && !live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const Interval iv = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        bulk.remove_usage(iv.from, iv.to, iv.nodes);
        per_call.remove_usage(iv.from, iv.to, iv.nodes);
        continue;
      }
      const std::string held = bulk.debug_string();
      const std::vector<Time> steps = breakpoint_times(held);
      const Time from = time_at(origin - 200, origin + 60'000);
      const Time to = from + time_at(0, 20'000) - (rng.uniform01() < 0.05 ? 20'000 : 0);
      const NodeCount nodes = static_cast<NodeCount>(rng.uniform_int(0, capacity + 1));
      const bool expected = per_call.fits_at(from, to - from, nodes);
      if (expected) per_call.add_usage(from, to, nodes);
      ASSERT_EQ(bulk.try_add_usage(from, to, nodes), expected) << "round " << round << " op " << op;
      ASSERT_EQ(bulk.debug_string(), per_call.debug_string()) << "round " << round << " op " << op;
      if (expected) {
        ++accepted;
        if (from < to && nodes > 0) live.push_back({from, to, nodes});
        continue;
      }
      ASSERT_EQ(bulk.debug_string(), held);
      if (from < origin || nodes > capacity) continue;  // refused before the scan
      ++rejected;
      if (!std::binary_search(steps.begin(), steps.end(), from)) ++rejected_mid_start;
      if (!std::binary_search(steps.begin(), steps.end(), to)) ++rejected_mid_end;
    }
    EXPECT_THROW(bulk.try_add_usage(origin, origin + 10, -1), std::invalid_argument);

    // Errors: more nodes than the machine holds at the origin, and negative
    // nodes. Either leaves the profile reset to the origin.
    const std::string empty = Profile(capacity, origin).debug_string();
    const std::vector<Profile::Busy> too_many = {{origin + 10, capacity}, {origin + 20, 1}};
    EXPECT_THROW(bulk.reset(origin, too_many), std::logic_error);
    EXPECT_EQ(bulk.debug_string(), empty);
    Profile spelled(capacity, origin);
    EXPECT_THROW(add_each(spelled, too_many), std::logic_error);
    const std::vector<Profile::Busy> negative = {{origin + 10, 1}, {origin - 10, -1}};
    EXPECT_THROW(bulk.reset(origin, negative), std::invalid_argument);
    EXPECT_EQ(bulk.debug_string(), empty);
    // Entries that ended by the origin hold no nodes there.
    bulk.reset(origin, {{origin, capacity}, {origin - 1, capacity}, {origin + 1, capacity}});
    EXPECT_EQ(bulk.free_at(origin), 0);
    EXPECT_EQ(bulk.free_at(origin + 1), capacity);
  }
  // Every case named above came up (the sequence is deterministic).
  EXPECT_GT(ends_before, 20);
  EXPECT_GT(ends_at, 20);
  EXPECT_GT(zero_nodes, 20);
  EXPECT_GT(equal_ends, 20);
  EXPECT_GT(unsorted, 20);
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 500);
  EXPECT_GT(rejected_mid_start, 200);
  EXPECT_GT(rejected_mid_end, 200);
}

TEST(ProfileDiff, FailedAddLeavesNoTrace) {
  Profile opt(10, 0);
  reference::ReferenceProfile ref(10, 0);
  opt.add_usage(100, 200, 8);
  ref.add_usage(100, 200, 8);
  EXPECT_THROW(opt.add_usage(50, 150, 5), std::logic_error);
  EXPECT_THROW(ref.add_usage(50, 150, 5), std::logic_error);
  // The optimized profile validates before it inserts a breakpoint; the
  // reference sweeps its validation breakpoints on its next mutation. Free
  // counts agree always.
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
