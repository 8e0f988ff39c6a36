#pragma once
// A forwarding Scheduler that times the core layer from outside: it wraps the
// policy make_scheduler() builds, is handed to sim::simulate_with (or a
// SimulationEngine) in its place, and times every call the engine makes into
// it. Results are untouched — each call is forwarded verbatim to the inner
// policy — which the traced run proves by reproducing the untraced store.
//
// Tallies are kept per wrapper instance, with no atomics on the hot path, and
// merged into a shared TallySink under a mutex when the wrapper is destroyed.
// That keeps them thread-safe when fork clones drain concurrently on the
// global pool.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "util/histogram.hpp"

namespace campaignbench {

/// Work and busy time of one Scheduler (or the merge of many).
struct SchedTally {
  std::uint64_t collect_calls = 0;
  std::uint64_t productive_calls = 0;  ///< collect_starts calls that started >= 1 job
  std::uint64_t event_calls = 0;       ///< on_submit + on_complete
  std::uint64_t clone_calls = 0;
  std::uint64_t collect_ns = 0;
  std::uint64_t event_ns = 0;
  std::uint64_t clone_ns = 0;
  /// collect_starts latency in microseconds, log-binned (~12% per bin).
  psched::util::Histogram collect_us{latency_edges_us()};

  void merge(const SchedTally& other);
  /// Latency at quantile q (0..1), read as the geometric middle of its bin.
  double collect_quantile_us(double q) const;

  static std::vector<double> latency_edges_us();
};

/// Where wrappers deposit their tallies when they die.
class TallySink {
 public:
  void merge(const SchedTally& tally);
  SchedTally total() const;

 private:
  mutable std::mutex mutex_;
  SchedTally total_;
};

class TimedScheduler final : public psched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<psched::Scheduler> inner, TallySink& sink);
  ~TimedScheduler() override;
  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  std::string name() const override { return inner_->name(); }
  void on_submit(psched::JobId id) override;
  void on_complete(psched::JobId id) override;
  void collect_starts(std::vector<psched::JobId>& starts) override;
  std::optional<psched::Time> next_wakeup() const override;
  /// Clones the inner policy (timed) and wraps the clone, so fork drains are
  /// timed into the same sink.
  std::unique_ptr<psched::Scheduler> clone() const override;

 private:
  /// The engine attaches this wrapper; the inner policy is attached to the
  /// same engine context on the first call that reaches it.
  void attach_inner() const;

  std::unique_ptr<psched::Scheduler> inner_;
  TallySink* sink_;
  mutable bool inner_attached_ = false;
  mutable SchedTally tally_;
};

}  // namespace campaignbench
