#pragma once
// The benchmark's own trace: spans recorded around each call into a library
// layer, kept in memory and written once at the end as Chrome trace-event
// JSON (loadable in ui.perfetto.dev and by tools/summarize_trace.py). Spans
// of one thread nest; a span's self time is its duration minus the time its
// direct children cover.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "timing.hpp"

namespace campaignbench {

class SpanLog {
 public:
  struct Event {
    std::string name;
    std::string arg;
    int tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };

  /// Records [construction, destruction) as one complete event.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, int tid, std::string arg = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    Event event_;
  };

  void record(Event event);

  /// Runs `fn` inside a span and returns its duration in seconds.
  template <typename Fn>
  double timed(const char* name, int tid, Fn&& fn, std::string arg = {}) {
    const Scope scope(*this, name, tid, std::move(arg));
    const std::uint64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Per span name: total seconds and self seconds (minus direct children).
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// {"traceEvents": [...], "selfTimes": {...}, "counters": <counters_json>},
  /// durations in microseconds; `counters_json` is a JSON object.
  std::string chrome_json(const std::string& counters_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace campaignbench
