#include "timed_scheduler.hpp"

#include <cmath>

#include "timing.hpp"

namespace campaignbench {

std::vector<double> SchedTally::latency_edges_us() {
  // 20 ns .. 20 s in 180 bins: 0.05 decades (~12%) per bin.
  return psched::util::log_edges(0.02, 2e7, 180);
}

void SchedTally::merge(const SchedTally& other) {
  collect_calls += other.collect_calls;
  productive_calls += other.productive_calls;
  event_calls += other.event_calls;
  clone_calls += other.clone_calls;
  collect_ns += other.collect_ns;
  event_ns += other.event_ns;
  clone_ns += other.clone_ns;
  // Same edges on both sides: re-adding each bin's middle lands in that bin.
  const psched::util::Histogram& h = other.collect_us;
  for (std::size_t i = 0; i < h.bin_count(); ++i)
    if (h.count(i) > 0.0) collect_us.add(std::sqrt(h.bin_lo(i) * h.bin_hi(i)), h.count(i));
  if (h.underflow() > 0.0) collect_us.add(h.bin_lo(0) * 0.5, h.underflow());
  if (h.overflow() > 0.0) collect_us.add(h.bin_hi(h.bin_count() - 1) * 2.0, h.overflow());
}

double SchedTally::collect_quantile_us(double q) const {
  const psched::util::Histogram& h = collect_us;
  const double total = h.total();
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = h.underflow();
  if (seen >= rank && seen > 0.0) return h.bin_lo(0);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    seen += h.count(i);
    if (seen >= rank && h.count(i) > 0.0) return std::sqrt(h.bin_lo(i) * h.bin_hi(i));
  }
  return h.bin_hi(h.bin_count() - 1);
}

void TallySink::merge(const SchedTally& tally) {
  const std::lock_guard<std::mutex> lock(mutex_);
  total_.merge(tally);
}

SchedTally TallySink::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

TimedScheduler::TimedScheduler(std::unique_ptr<psched::Scheduler> inner, TallySink& sink)
    : inner_(std::move(inner)), sink_(&sink) {}

TimedScheduler::~TimedScheduler() { sink_->merge(tally_); }

void TimedScheduler::attach_inner() const {
  if (inner_attached_) return;
  inner_->attach(ctx());
  inner_attached_ = true;
}

void TimedScheduler::on_submit(psched::JobId id) {
  attach_inner();
  const std::uint64_t t0 = now_ns();
  inner_->on_submit(id);
  tally_.event_ns += now_ns() - t0;
  ++tally_.event_calls;
}

void TimedScheduler::on_complete(psched::JobId id) {
  attach_inner();
  const std::uint64_t t0 = now_ns();
  inner_->on_complete(id);
  tally_.event_ns += now_ns() - t0;
  ++tally_.event_calls;
}

void TimedScheduler::collect_starts(std::vector<psched::JobId>& starts) {
  attach_inner();
  const std::size_t before = starts.size();
  const std::uint64_t t0 = now_ns();
  inner_->collect_starts(starts);
  const std::uint64_t elapsed = now_ns() - t0;
  tally_.collect_ns += elapsed;
  ++tally_.collect_calls;
  if (starts.size() > before) ++tally_.productive_calls;
  tally_.collect_us.add(static_cast<double>(elapsed) * 1e-3);
}

std::optional<psched::Time> TimedScheduler::next_wakeup() const {
  attach_inner();
  return inner_->next_wakeup();
}

std::unique_ptr<psched::Scheduler> TimedScheduler::clone() const {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<psched::Scheduler> inner = inner_->clone();
  tally_.clone_ns += now_ns() - t0;
  ++tally_.clone_calls;
  if (!inner) return nullptr;
  return std::make_unique<TimedScheduler>(std::move(inner), *sink_);
}

}  // namespace campaignbench
