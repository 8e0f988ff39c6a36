#pragma once
// Shared fixtures/builders for the test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/policy.hpp"
#include "sim/engine.hpp"

namespace psched::test {

/// Build a job with the common fields; wcl defaults to runtime (perfect
/// estimate) when left at 0.
inline Job make_job(Time submit, Time runtime, NodeCount nodes, UserId user = 0, Time wcl = 0) {
  Job job;
  job.submit = submit;
  job.runtime = runtime;
  job.wcl = wcl > 0 ? wcl : runtime;
  job.nodes = nodes;
  job.user = user;
  job.group = user % 4;
  return job;
}

/// Normalized workload from a job list.
inline Workload make_workload(NodeCount system_size, std::vector<Job> jobs) {
  WorkloadBuilder builder(std::move(jobs), system_size);
  builder.normalize();
  Workload w = builder.build();
  w.validate();
  return w;
}

/// Run one policy on a workload with default engine settings.
inline SimulationResult run_policy(const Workload& workload, PolicyKind kind,
                                   PriorityKind priority = PriorityKind::Fcfs) {
  sim::EngineConfig config;
  config.policy.kind = kind;
  config.policy.priority = priority;
  return sim::simulate(workload, config);
}

/// The record a snapshot entry names (snapshots store record ids only).
inline const JobRecord& record_of(const SimulationResult& result, JobId id) {
  return result.records.at(static_cast<std::size_t>(id));
}

/// A running job's remaining time at a snapshot instant `at`, as the hybrid
/// FST reads it from the record: runtime-based (perfect knowledge) ...
inline Time remaining_at(const JobRecord& record, Time at) {
  return record.start + record.job.runtime - at;
}

/// ... and WCL-based (the scheduler's knowledge), clamped to at least 1.
inline Time est_remaining_at(const JobRecord& record, Time at) {
  return std::max<Time>(1, record.start + record.job.wcl - at);
}

/// No record may over-allocate the machine at any instant.
inline void expect_no_overallocation(const SimulationResult& result) {
  // Sweep start/finish events.
  std::vector<std::pair<Time, NodeCount>> deltas;
  for (const JobRecord& r : result.records) {
    deltas.push_back({r.start, r.job.nodes});
    deltas.push_back({r.finish, static_cast<NodeCount>(-r.job.nodes)});
  }
  std::sort(deltas.begin(), deltas.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // releases before allocations at equal time
  });
  NodeCount busy = 0;
  for (const auto& [at, delta] : deltas) {
    busy += delta;
    ASSERT_LE(busy, result.system_size) << "over-allocation at t=" << at;
    ASSERT_GE(busy, 0);
  }
}

/// Every record completed, started no earlier than submitted, ran its runtime.
inline void expect_complete_and_causal(const SimulationResult& result) {
  for (const JobRecord& r : result.records) {
    ASSERT_TRUE(r.completed()) << "record " << r.job.id;
    EXPECT_GE(r.start, r.job.submit) << "record " << r.job.id;
    if (!r.killed_at_wcl) {
      EXPECT_EQ(r.finish - r.start, r.job.runtime) << "record " << r.job.id;
    }
  }
}

}  // namespace psched::test
