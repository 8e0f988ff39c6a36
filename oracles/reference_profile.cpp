#include "oracles/reference_profile.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace psched::reference {

ReferenceProfile::ReferenceProfile(NodeCount capacity, Time origin)
    : capacity_(capacity), origin_(origin) {
  if (capacity <= 0) throw std::invalid_argument("Profile: capacity must be positive");
  steps_.push_back({origin_, capacity_});
}

void ReferenceProfile::reset(Time origin) {
  origin_ = origin;
  steps_.clear();
  steps_.push_back({origin_, capacity_});
}

std::size_t ReferenceProfile::step_index(Time t) const {
  if (t < origin_) throw std::logic_error("Profile: time before origin");
  // Last step with at <= t.
  const auto it = std::upper_bound(steps_.begin(), steps_.end(), t,
                                   [](Time value, const Step& s) { return value < s.at; });
  return static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
}

std::size_t ReferenceProfile::ensure_breakpoint(Time t) {
  const std::size_t i = step_index(t);
  if (steps_[i].at == t) return i;
  steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1, {t, steps_[i].free});
  return i + 1;
}

void ReferenceProfile::coalesce() {
  std::size_t out = 1;
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    if (steps_[i].free == steps_[out - 1].free) continue;
    steps_[out++] = steps_[i];
  }
  steps_.resize(out);
}

void ReferenceProfile::add_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::add_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::add_usage: interval before origin");
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);  // end marker keeps old free value
  // Validate the whole window before mutating so a failed add leaves the
  // free counts untouched (strong exception safety; stray breakpoints are
  // harmless and coalesce away later).
  for (std::size_t i = first; i < last; ++i) {
    if (steps_[i].free < nodes)
      throw std::logic_error("Profile::add_usage: over-reservation at t=" +
                             std::to_string(steps_[i].at));
  }
  for (std::size_t i = first; i < last; ++i) steps_[i].free -= nodes;
  coalesce();
}

void ReferenceProfile::remove_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::remove_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::remove_usage: interval before origin");
  const std::size_t first = ensure_breakpoint(from);
  const std::size_t last = ensure_breakpoint(to);
  for (std::size_t i = first; i < last; ++i) {
    if (steps_[i].free + nodes > capacity_)
      throw std::logic_error("Profile::remove_usage: exceeds capacity at t=" +
                             std::to_string(steps_[i].at));
  }
  for (std::size_t i = first; i < last; ++i) steps_[i].free += nodes;
  coalesce();
}

NodeCount ReferenceProfile::free_at(Time t) const { return steps_[step_index(t)].free; }

bool ReferenceProfile::fits_at(Time start, Time duration, NodeCount nodes) const {
  if (start < origin_) return false;
  if (nodes > capacity_) return false;
  if (duration <= 0 || nodes <= 0) return true;
  const Time end = start + duration;
  for (std::size_t i = step_index(start); i < steps_.size() && steps_[i].at < end; ++i) {
    if (steps_[i].free < nodes) return false;
  }
  return true;
}

Time ReferenceProfile::earliest_fit(Time earliest, Time duration, NodeCount nodes) const {
  if (nodes > capacity_)
    throw std::invalid_argument("Profile::earliest_fit: job wider than machine");
  earliest = std::max(earliest, origin_);
  if (duration <= 0 || nodes <= 0) return earliest;

  std::size_t i = step_index(earliest);
  Time candidate = earliest;
  for (;;) {
    // Advance past steps that cannot host the job's start.
    while (i < steps_.size() && steps_[i].free < nodes) {
      ++i;
      if (i == steps_.size()) return candidate;  // unreachable: last step == capacity
      candidate = steps_[i].at;
    }
    // Check the window [candidate, candidate + duration).
    const Time end = candidate + duration;
    std::size_t j = i;
    bool ok = true;
    while (j < steps_.size() && steps_[j].at < end) {
      if (steps_[j].free < nodes) {
        ok = false;
        break;
      }
      ++j;
    }
    if (ok) return candidate;
    // Restart after the blocking step.
    i = j + 1;
    if (i >= steps_.size()) {
      // The profile tail always returns to full capacity, so the candidate
      // after the last breakpoint is feasible.
      return steps_.back().at;
    }
    candidate = steps_[i].at;
  }
}

void ReferenceProfile::check_invariants() const {
  if (steps_.empty()) throw std::logic_error("Profile: empty step list");
  if (steps_.front().at != origin_) throw std::logic_error("Profile: first step not at origin");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].free < 0 || steps_[i].free > capacity_)
      throw std::logic_error("Profile: free count out of range");
    if (i > 0 && steps_[i - 1].at >= steps_[i].at)
      throw std::logic_error("Profile: steps not strictly increasing");
  }
  if (steps_.back().free != capacity_)
    throw std::logic_error("Profile: tail must return to full capacity");
}

std::string ReferenceProfile::debug_string() const {
  std::ostringstream os;
  os << "Profile(cap=" << capacity_ << ")";
  for (const Step& s : steps_) os << " [" << s.at << ":" << s.free << "]";
  return os.str();
}

ReferenceListScheduler::ReferenceListScheduler(NodeCount nodes, Time origin) {
  if (nodes <= 0) throw std::invalid_argument("ListScheduler: nodes must be positive");
  avail_.assign(static_cast<std::size_t>(nodes), origin);
}

void ReferenceListScheduler::occupy(NodeCount nodes, Time until) {
  if (nodes <= 0 || static_cast<std::size_t>(nodes) > avail_.size())
    throw std::invalid_argument("ListScheduler::occupy: bad node count");
  // The earliest-available nodes are at the front (vector kept sorted).
  for (std::size_t i = 0; i < static_cast<std::size_t>(nodes); ++i)
    avail_[i] = std::max(avail_[i], until);
  std::sort(avail_.begin(), avail_.end());
}

Time ReferenceListScheduler::peek_start(NodeCount nodes, Time earliest) const {
  if (nodes <= 0 || static_cast<std::size_t>(nodes) > avail_.size())
    throw std::invalid_argument("ListScheduler::peek_start: bad node count");
  // Picking the N earliest-available nodes minimizes the start time; the
  // start is the availability of the N-th of them.
  return std::max(earliest, avail_[static_cast<std::size_t>(nodes) - 1]);
}

Time ReferenceListScheduler::schedule(NodeCount nodes, Time duration, Time earliest) {
  if (duration < 0) throw std::invalid_argument("ListScheduler::schedule: negative duration");
  const Time start = peek_start(nodes, earliest);
  const Time end = start + duration;
  const auto n = static_cast<std::size_t>(nodes);
  for (std::size_t i = 0; i < n; ++i) avail_[i] = end;
  // The first n entries were the smallest and are now all `end`; merge back
  // into sorted order (rotate to the insertion point).
  const auto insert_at = std::lower_bound(avail_.begin() + static_cast<std::ptrdiff_t>(n),
                                          avail_.end(), end);
  std::rotate(avail_.begin(), avail_.begin() + static_cast<std::ptrdiff_t>(n), insert_at);
  return start;
}

Time ReferenceListScheduler::earliest_available() const { return avail_.front(); }

}  // namespace psched::reference
