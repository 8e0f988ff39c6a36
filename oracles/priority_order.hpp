#pragma once
// The seed priority order, preserved as the oracle for core's WaitQueue:
// every call re-reads each waiting job's usage through the context and
// re-sorts the whole set, the way every policy ordered its queue at every
// scheduling event before the order was maintained across events.
// tests/test_core_wait_queue.cpp diffs the queue against it, and the seed
// conservative scheduler in tests/test_sched_determinism.cpp orders by it.
// Linked by tests and benches only, never by libpsched.

#include <vector>

#include "core/scheduler.hpp"

namespace psched::reference {

/// true if a's queue priority is ahead of b's under `kind`: lower published
/// usage first (Fairshare only), then earlier submit, then lower id.
bool priority_less(const SchedulerContext& ctx, const Job& a, const Job& b, PriorityKind kind);

/// `ids` sorted by priority_less, with each key read once per id.
std::vector<JobId> sorted_by_priority(const SchedulerContext& ctx, std::vector<JobId> ids,
                                      PriorityKind kind);

}  // namespace psched::reference
