#include "span_log.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "scenario/journal.hpp"
#include "timing.hpp"

namespace campaignbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name, int tid, std::string arg) : log_(log) {
  event_.name = name;
  event_.arg = std::move(arg);
  event_.tid = tid;
  event_.start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  event_.dur_ns = now_ns() - event_.start_ns;
  log_.record(std::move(event_));
}

void SpanLog::record(Event event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  // Per thread, outer spans first: a stack of open ancestors finds each
  // span's innermost enclosing span, which loses the child's duration.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<double> self(events.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    self[i] = static_cast<double>(e.dur_ns) * 1e-9;
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.tid == e.tid && e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= static_cast<double>(e.dur_ns) * 1e-9;
    open.push_back(i);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Totals& t = out[events[i].name];
    ++t.count;
    t.total_s += static_cast<double>(events[i].dur_ns) * 1e-9;
    t.self_s += self[i];
  }
  return out;
}

std::string SpanLog::chrome_json(const std::string& counters_json) const {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  std::uint64_t origin = events.empty() ? 0 : events.front().start_ns;
  for (const Event& e : events) origin = std::min(origin, e.start_ns);
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(e.start_ns - origin) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3);
    out << "  {\"name\": \"" << psched::scenario::json_escape(e.name)
        << "\", \"cat\": \"campaignbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid << ", "
        << times << ", \"args\": {\"arg\": \"" << psched::scenario::json_escape(e.arg) << "\"}}"
        << (i + 1 != events.size() ? "," : "") << '\n';
  }
  out << "],\n\"selfTimes\": {";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    out << (first ? "" : ", ") << '"' << psched::scenario::json_escape(name)
        << "\": {\"count\": " << t.count << ", \"total_s\": "
        << psched::scenario::format_round_trip_double(t.total_s)
        << ", \"self_s\": " << psched::scenario::format_round_trip_double(t.self_s) << '}';
    first = false;
  }
  out << "},\n\"counters\": " << counters_json << "}\n";
  return out.str();
}

}  // namespace campaignbench
