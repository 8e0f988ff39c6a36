#include "core/profile.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psched {

namespace {
constexpr int kHintProbes = 2;  ///< forward probes before binary search
}  // namespace

Profile::Profile(NodeCount capacity, Time origin) : capacity_(capacity), origin_(origin) {
  if (capacity <= 0) throw std::invalid_argument("Profile: capacity must be positive");
  steps_.push_back({origin_, capacity_});
}

void Profile::reset(Time origin) {
  origin_ = origin;
  steps_.clear();
  steps_.push_back({origin_, capacity_});
  hint_ = 0;
}

void Profile::reset(Time origin, const std::vector<Busy>& busy) {
  // Every interval starts at the origin, so the usage there is the total
  // and each end returns its nodes. The step vector doubles as the sort
  // buffer: (end, nodes) pairs first, then a prefix sum that merges equal
  // ends into one step.
  reset(origin);
  NodeCount used = 0;
  for (const Busy& b : busy) {
    if (b.nodes < 0) {
      reset(origin);
      throw std::invalid_argument("Profile::reset: negative nodes");
    }
    if (b.nodes == 0 || b.end <= origin) continue;
    used += b.nodes;
    steps_.push_back({b.end, b.nodes});
  }
  if (used > capacity_) {
    reset(origin);
    throw std::logic_error("Profile::reset: over-reservation at t=" + std::to_string(origin));
  }
  std::sort(steps_.begin() + 1, steps_.end(),
            [](const Step& a, const Step& b) { return a.at < b.at; });
  NodeCount free = capacity_ - used;
  steps_.front().free = free;
  std::size_t out = 1;
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    free += steps_[i].free;
    if (steps_[i].at != steps_[out - 1].at) steps_[out++].at = steps_[i].at;
    steps_[out - 1].free = free;
  }
  steps_.resize(out);
}

void Profile::advance_origin(Time now) {
  if (now <= origin_) return;
  const std::size_t i = step_index(now);
  if (i > 0) steps_.erase(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(i));
  steps_.front().at = now;
  origin_ = now;
  hint_ = 0;
}

std::size_t Profile::step_index(Time t) const {
  if (t < origin_) throw std::logic_error("Profile: time before origin");
  const std::size_t n = steps_.size();
  std::size_t i = hint_ < n ? hint_ : n - 1;
  const auto before = [](Time value, const Step& s) { return value < s.at; };
  if (steps_[i].at <= t) {
    // Monotone scans resolve within a few forward probes.
    for (int probe = 0; probe < kHintProbes; ++probe) {
      if (i + 1 >= n || steps_[i + 1].at > t) {
        hint_ = i;
        return i;
      }
      ++i;
    }
    const auto it = std::upper_bound(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                     steps_.end(), t, before);
    i = static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
  } else {
    const auto it =
        std::upper_bound(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(i), t, before);
    i = static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
  }
  hint_ = i;
  return i;
}

void Profile::coalesce_range(std::size_t lo, std::size_t hi) {
  // The mutation changed free counts in [lo, hi); only the adjacency pairs
  // (i-1, i) for i in [lo, hi] can have become equal.
  if (lo < 1) lo = 1;
  const std::size_t end = std::min(hi + 1, steps_.size());
  if (lo >= end) return;
  std::size_t out = lo;
  for (std::size_t i = lo; i < end; ++i) {
    if (steps_[i].free == steps_[out - 1].free) continue;
    steps_[out++] = steps_[i];
  }
  if (out < end) {
    steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(out),
                 steps_.begin() + static_cast<std::ptrdiff_t>(end));
    hint_ = out - 1;
  }
}

Profile::Span Profile::span(Time from, Time to, NodeCount lo, NodeCount hi) const {
  const std::size_t first = step_index(from);
  std::size_t last = first;
  for (;; ++last) {
    if (steps_[last].free < lo || steps_[last].free > hi) return {first, last, false};
    if (last + 1 == steps_.size() || steps_[last + 1].at >= to) return {first, last, true};
  }
}

void Profile::shift(Time from, Time to, const Span& window, NodeCount delta) {
  // Split the window out at `from` unless a step begins there, and at `to`
  // unless the next step begins there; then shift the steps in between.
  const auto at = [this](std::size_t k) { return steps_.begin() + static_cast<std::ptrdiff_t>(k); };
  std::size_t first = window.first;
  std::size_t stop = window.last + 1;
  if (steps_[first].at < from) {
    steps_.insert(at(first + 1), {from, steps_[first].free});
    ++first;
    ++stop;
  }
  if (stop == steps_.size() || steps_[stop].at != to)
    steps_.insert(at(stop), {to, steps_[stop - 1].free});
  for (std::size_t k = first; k < stop; ++k) steps_[k].free += delta;
  hint_ = first;
  coalesce_range(first, stop);
}

void Profile::add_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::add_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::add_usage: interval before origin");
  const Span window = span(from, to, nodes, capacity_);
  if (!window.fits)
    throw std::logic_error("Profile::add_usage: over-reservation at t=" +
                           std::to_string(std::max(steps_[window.last].at, from)));
  shift(from, to, window, -nodes);
}

bool Profile::try_add_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::try_add_usage: negative nodes");
  if (from < origin_ || nodes > capacity_) return false;
  if (nodes == 0 || from >= to) return true;
  const Span window = span(from, to, nodes, capacity_);
  if (!window.fits) return false;
  shift(from, to, window, -nodes);
  return true;
}

void Profile::remove_usage(Time from, Time to, NodeCount nodes) {
  if (nodes < 0) throw std::invalid_argument("Profile::remove_usage: negative nodes");
  if (nodes == 0 || from >= to) return;
  if (from < origin_) throw std::logic_error("Profile::remove_usage: interval before origin");
  const Span window = span(from, to, 0, capacity_ - nodes);
  if (!window.fits)
    throw std::logic_error("Profile::remove_usage: exceeds capacity at t=" +
                           std::to_string(std::max(steps_[window.last].at, from)));
  shift(from, to, window, nodes);
}

NodeCount Profile::free_at(Time t) const { return steps_[step_index(t)].free; }

bool Profile::fits_at(Time start, Time duration, NodeCount nodes) const {
  if (start < origin_) return false;
  if (nodes > capacity_) return false;
  if (duration <= 0 || nodes <= 0) return true;
  return span(start, start + duration, nodes, capacity_).fits;
}

Profile::Fit Profile::find_fit(Time earliest, Time duration, NodeCount nodes, Time skip_from,
                               Time skip_to) const {
  // Single forward pass that alternates two tight loops: extend the open
  // window at `candidate` step by step until it spans `duration` (found) or
  // hits a step without `nodes` free, then skip blocked steps to the next
  // feasible step, which opens the next candidate window. The tail step
  // always has free == capacity >= nodes, so the skip needs no bound check
  // and the scan always ends with a window.
  //
  // Candidates only grow, so the skip range is met at most once: the first
  // candidate at or past `jump_at` jumps to skip_to if it is still inside
  // the range, and jump_at then moves out of reach. That keeps the range to
  // one compare per window; the loops themselves are unchanged (the scan is
  // codegen-sensitive).
  constexpr Time kNever = std::numeric_limits<Time>::max();
  Time jump_at = skip_from < skip_to ? skip_from : kNever;
  if (earliest >= jump_at) {
    if (earliest < skip_to) earliest = skip_to;
    jump_at = kNever;
  }
  const Step* steps = steps_.data();
  const std::size_t n = steps_.size();
  const std::size_t begin = step_index(earliest);
  std::size_t i = begin;
  std::size_t first = begin;
  std::size_t jumped = 0;  // steps passed over by the jump, not scanned
  Time candidate = earliest;
  for (;;) {
    if (steps[i].free >= nodes) {
      const Time end = candidate + duration;
      while (i + 1 < n && steps[i + 1].at < end && steps[i + 1].free >= nodes) ++i;
      if (i + 1 >= n || steps[i + 1].at >= end) break;
      ++i;  // steps[i] blocks the window
    }
    while (steps[i].free < nodes) ++i;
    candidate = steps[i].at;
    first = i;
    if (candidate >= jump_at) {
      if (candidate < skip_to) {
        const std::size_t to = step_index(skip_to);
        jumped = to - i;
        i = first = to;
        candidate = skip_to;
      }
      jump_at = kNever;
    }
  }
  if (obs::armed()) {
    obs::count(obs::Counter::kProfileFitCalls);
    obs::count(obs::Counter::kProfileFitSteps, i - begin - jumped);
  }
  return {candidate, first, i};
}

Time Profile::earliest_fit(Time earliest, Time duration, NodeCount nodes) const {
  if (nodes > capacity_)
    throw std::invalid_argument("Profile::earliest_fit: job wider than machine");
  earliest = std::max(earliest, origin_);
  if (duration <= 0 || nodes <= 0) return earliest;
  return find_fit(earliest, duration, nodes, 0, 0).start;
}

std::optional<Time> Profile::earliest_fit_before(Time from, Time to, Time duration,
                                                 NodeCount nodes, Time clip) const {
  if (nodes > capacity_)
    throw std::invalid_argument("Profile::earliest_fit_before: job wider than machine");
  from = std::max(from, origin_);
  to = std::min(to, clip);
  if (from >= to) return std::nullopt;
  if (duration <= 0 || nodes <= 0) return from;
  // find_fit's two loops with every window clipped at `clip`; a candidate
  // at or past `to` ends the scan. The blocked skip is find_fit's own
  // one-compare loop (bounding it by `to` as well costs more per step than
  // the few blocked steps past `to` it would save).
  const Step* steps = steps_.data();
  const std::size_t n = steps_.size();
  const std::size_t begin = step_index(from);
  std::size_t i = begin;
  Time candidate = from;
  std::optional<Time> fit;
  for (;;) {
    if (steps[i].free >= nodes) {
      const Time end = std::min(candidate + duration, clip);
      while (i + 1 < n && steps[i + 1].at < end && steps[i + 1].free >= nodes) ++i;
      if (i + 1 >= n || steps[i + 1].at >= end) {
        fit = candidate;
        break;
      }
      ++i;  // steps[i] blocks the window
    }
    while (steps[i].free < nodes) ++i;
    if (steps[i].at >= to) break;
    candidate = steps[i].at;
  }
  if (obs::armed()) {
    obs::count(obs::Counter::kProfileFitCalls);
    obs::count(obs::Counter::kProfileFitSteps, i - begin);
  }
  return fit;
}

Time Profile::reserve(Time earliest, Time duration, NodeCount nodes, Time skip_from,
                      Time skip_to) {
  if (nodes < 0) throw std::invalid_argument("Profile::reserve: negative nodes");
  if (nodes > capacity_) throw std::invalid_argument("Profile::reserve: job wider than machine");
  earliest = std::max(earliest, origin_);
  if (duration <= 0 || nodes == 0) return earliest;

  // find_fit proved every step in the window has `nodes` free.
  const Fit fit = find_fit(earliest, duration, nodes, skip_from, skip_to);
  shift(fit.start, fit.start + duration, {fit.first, fit.last, true}, -nodes);
  return fit.start;
}

void Profile::check_invariants() const {
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

std::string Profile::debug_string() const {
  std::ostringstream os;
  os << "Profile(cap=" << capacity_ << ")";
  for (const Step& s : steps_) os << " [" << s.at << ":" << s.free << "]";
  return os.str();
}

}  // namespace psched
