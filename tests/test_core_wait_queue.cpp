// WaitQueue (core/scheduler.hpp) against the seed priority order
// (oracles/priority_order.hpp): randomized pushes, compaction erases, usage
// changes and epoch moves through a fixture context, under both priority
// kinds and under a volatile epoch. After every refresh the queue must list
// exactly the oracle's full re-sort of the waiting ids, and every entry must
// still carry the payload written into it.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/scheduler.hpp"
#include "oracles/priority_order.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace psched {
namespace {

/// Fixture context: usages are set directly; `epoch` empty means the
/// context does not track changes (the interface's volatile default).
class QueueContext final : public SchedulerContext {
 public:
  Time now() const override { return 0; }
  NodeCount total_nodes() const override { return 64; }
  NodeCount free_nodes() const override { return 64; }
  const Job& job(JobId id) const override { return jobs.at(static_cast<std::size_t>(id)); }
  const std::vector<RunningView>& running() const override { return running_; }
  double user_usage(UserId user) const override {
    const auto it = usage.find(user);
    return it == usage.end() ? 0.0 : it->second;
  }
  double mean_positive_usage() const override { return 0.0; }
  std::uint64_t priority_epoch() const override {
    return epoch ? *epoch : SchedulerContext::priority_epoch();
  }

  std::vector<Job> jobs;
  std::map<UserId, double> usage;
  std::optional<std::uint64_t> epoch;

 private:
  std::vector<RunningView> running_;
};

std::vector<JobId> ids_of(const WaitQueue& queue) {
  std::vector<JobId> ids;
  for (const WaitQueue::Entry& entry : queue) ids.push_back(entry.id);
  return ids;
}

Time payload_of(JobId id) { return 1000 + 7 * static_cast<Time>(id); }

/// One randomized run of 400 operations on a queue of `kind` priority.
void run_differential(std::uint64_t seed, PriorityKind kind, bool volatile_epoch) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " kind " << static_cast<int>(kind)
                                  << " volatile " << volatile_epoch);
  util::Rng rng(seed);
  QueueContext ctx;
  if (!volatile_epoch) ctx.epoch = 0;
  WaitQueue queue(kind);
  std::set<JobId> waiting;
  const auto new_usage = [&] {
    // Few distinct values, so usage ties (and the submit/id tie-breaks) are
    // common; 0 is the unknown-user value.
    return static_cast<double>(rng.uniform_int(0, 4)) * 250.0;
  };

  for (int step = 0; step < 400; ++step) {
    const auto op = rng.uniform_int(0, 9);
    if (op <= 4) {
      // Arrival: submits are non-decreasing like the engine's, with ties.
      const Time submit = ctx.jobs.empty() ? 0 : ctx.jobs.back().submit + rng.uniform_int(0, 2);
      Job job = test::make_job(submit, 100, 1 + static_cast<NodeCount>(rng.uniform_int(0, 7)),
                               static_cast<UserId>(rng.uniform_int(0, 5)));
      job.id = static_cast<JobId>(ctx.jobs.size());
      ctx.jobs.push_back(job);
      queue.push(ctx, job.id);
      for (WaitQueue::Entry& entry : queue)
        if (entry.id == job.id) entry.reservation = payload_of(job.id);
      waiting.insert(job.id);
    } else if (op <= 6) {
      // Starts: drop a random subset in one compaction pass.
      queue.retain([&](const WaitQueue::Entry& entry) {
        if (rng.uniform_int(0, 3) != 0) return true;
        waiting.erase(entry.id);
        return false;
      });
    } else if (op <= 8) {
      // A publish: some users' usage moves, and a tracking context says so.
      for (auto k = rng.uniform_int(1, 3); k > 0; --k)
        ctx.usage[static_cast<UserId>(rng.uniform_int(0, 5))] = new_usage();
      if (ctx.epoch) ++*ctx.epoch;
    }
    // op 9: a scheduling event with nothing new.

    const bool stale = queue.stale(ctx);
    const bool resorted = queue.refresh(ctx);
    EXPECT_EQ(stale, resorted);
    if (kind == PriorityKind::Fcfs) {
      EXPECT_FALSE(resorted);  // constant keys never need a re-read
    } else if (volatile_epoch) {
      EXPECT_TRUE(resorted);  // an untracked context re-sorts every time
      EXPECT_TRUE(queue.stale(ctx));
    } else {
      EXPECT_FALSE(queue.stale(ctx)) << "step " << step;
    }

    const std::vector<JobId> expected = reference::sorted_by_priority(
        ctx, std::vector<JobId>(waiting.begin(), waiting.end()), kind);
    ASSERT_EQ(ids_of(queue), expected) << "step " << step;
    for (const WaitQueue::Entry& entry : queue) {
      ASSERT_EQ(entry.reservation, payload_of(entry.id)) << "step " << step;
      const Job& job = ctx.job(entry.id);
      ASSERT_EQ(entry.nodes, job.nodes);
      ASSERT_EQ(entry.wcl, job.wcl);
      ASSERT_EQ(entry.submit, job.submit);
    }
  }
}

TEST(WaitQueue, MatchesOracleSortUnderTrackedEpoch) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    run_differential(seed, PriorityKind::Fairshare, /*volatile_epoch=*/false);
    run_differential(seed, PriorityKind::Fcfs, /*volatile_epoch=*/false);
  }
}

TEST(WaitQueue, MatchesOracleSortUnderVolatileEpoch) {
  for (const std::uint64_t seed : {5u, 6u}) {
    run_differential(seed, PriorityKind::Fairshare, /*volatile_epoch=*/true);
    run_differential(seed, PriorityKind::Fcfs, /*volatile_epoch=*/true);
  }
}

TEST(WaitQueue, ResortsOnlyWhenTheEpochMoves) {
  QueueContext ctx;
  ctx.epoch = 3;
  for (int i = 0; i < 3; ++i) {
    Job job = test::make_job(i, 100, 1, /*user=*/i);
    job.id = i;
    ctx.jobs.push_back(job);
  }
  WaitQueue queue(PriorityKind::Fairshare);
  for (const Job& job : ctx.jobs) queue.push(ctx, job.id);
  EXPECT_TRUE(queue.refresh(ctx));  // the first refresh always reads
  EXPECT_FALSE(queue.refresh(ctx));
  EXPECT_EQ(ids_of(queue), (std::vector<JobId>{0, 1, 2}));

  // Usage moves with the epoch: user 0 becomes the heaviest.
  ctx.usage[0] = 500.0;
  ctx.epoch = 4;
  EXPECT_TRUE(queue.stale(ctx));
  EXPECT_TRUE(queue.refresh(ctx));
  EXPECT_EQ(ids_of(queue), (std::vector<JobId>{1, 2, 0}));
  EXPECT_FALSE(queue.refresh(ctx));

  // An arrival within the epoch goes straight to its place, no re-sort.
  Job late = test::make_job(10, 100, 1, /*user=*/7);
  late.id = 3;
  ctx.jobs.push_back(late);
  queue.push(ctx, late.id);
  EXPECT_FALSE(queue.stale(ctx));
  EXPECT_EQ(ids_of(queue), (std::vector<JobId>{1, 2, 3, 0}));
}

}  // namespace
}  // namespace psched
