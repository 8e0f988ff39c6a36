#include "core/conservative_scheduler.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psched {

ConservativeScheduler::ConservativeScheduler(ConservativeConfig config)
    : config_(config), queue_(config.priority) {}

std::string ConservativeScheduler::name() const {
  std::string n = config_.dynamic_reservations ? "consdyn" : "cons";
  if (config_.priority == PriorityKind::Fcfs) n += ".fcfs";
  return n;
}

void ConservativeScheduler::on_submit(JobId id) { queue_.push(ctx(), id); }

ConservativeScheduler::PlannedRun* ConservativeScheduler::planned_run(JobId id) {
  const auto it = std::find_if(planned_runs_.begin(), planned_runs_.end(),
                               [id](const PlannedRun& run) { return run.id == id; });
  return it == planned_runs_.end() ? nullptr : &*it;
}

void ConservativeScheduler::on_complete(JobId id) {
  PlannedRun* run = planned_run(id);
  if (!run) {
    // Unknown to the plan: rebuild, and prove nothing about old seats.
    plan_valid_ = false;
    freed_horizon_ = kUnbounded;
    return;
  }
  // Its planned usage [now, end) leaves the plan at the next replan.
  freed_horizon_ = std::max(freed_horizon_, run->end);
  completed_runs_.push_back(*run);
  *run = planned_runs_.back();
  planned_runs_.pop_back();
}

namespace {

/// Lower bound on the next dynamic seat's slot, from the last kFloorSeats
/// seats of the same from-`now` loop (see the implementation note in the
/// header).
class FitFloor {
 public:
  explicit FitFloor(Time now) : now_(now) {}

  /// The latest slot among remembered seats no longer and no wider than
  /// `entry`; the compares are branch-free, so they stay cheap on every seat.
  Time floor(const WaitQueue::Entry& entry) const {
    Time floor = now_;
    for (std::size_t k = 0; k < used_; ++k) {
      const Seat& seat = seats_[k];
      const bool bounds = seat.wcl <= entry.wcl && seat.nodes <= entry.nodes;
      floor = std::max(floor, bounds ? seat.slot : floor);
    }
    return floor;
  }

  /// Remembers a seat. One at `now` bounds nothing, so it is not kept: on a
  /// shallow queue most seats start at `now`, and the floor then compares
  /// against few seats.
  void record(const WaitQueue::Entry& entry) {
    if (entry.reservation <= now_) return;
    seats_[next_] = {entry.wcl, entry.nodes, entry.reservation};
    next_ = (next_ + 1) % kFloorSeats;
    used_ = std::min(used_ + 1, kFloorSeats);
  }

 private:
  static constexpr std::size_t kFloorSeats = 8;
  struct Seat {
    Time wcl;
    NodeCount nodes;
    Time slot;
  };
  Time now_;
  std::array<Seat, kFloorSeats> seats_{};
  std::size_t next_ = 0;
  std::size_t used_ = 0;  ///< seats_[0, used_) hold real seats
};

}  // namespace

void ConservativeScheduler::seat(Entry& entry, Time from) {
  entry.reservation = plan_->reserve(from, entry.wcl, entry.nodes);
}

void ConservativeScheduler::seat_all_from_now(std::size_t first, Time now, std::size_t reordered) {
  FitFloor floor(now);
  Time freed = freed_horizon_;  // frees ahead of the next seat end by here
  Time wake = kUnbounded;       // the earliest seat after now so far
  for (std::size_t i = 0; i < first; ++i)
    if (queue_[i].reservation > now) wake = std::min(wake, queue_[i].reservation);
  frontiers_.points.clear();
  std::size_t i = first;
  for (; i < queue_.size(); ++i) {
    if ((i - first) % kCutStride == 0 && wake != kUnbounded && suffix_waits(i, now, wake)) break;
    Entry& entry = queue_[i];
    const Time old = entry.reservation;
    const Time from = floor.floor(entry);
    if (old == kNoTime || i >= reordered) {
      seat(entry, from);
    } else {
      entry.reservation =
          plan_->reserve(from, entry.wcl, entry.nodes, std::max(from, std::min(freed, old)), old);
      if (entry.reservation != old) freed = std::max(freed, old + entry.wcl);
    }
    floor.record(entry);
    if (entry.reservation > now) wake = std::min(wake, entry.reservation);
  }
  for (std::size_t k = i; k < queue_.size(); ++k) queue_[k].reservation = kNoTime;
  if (obs::armed()) {
    obs::count(obs::Counter::kSchedDynamicSeats, i - first);
    obs::count(obs::Counter::kSchedDynamicUnseated, queue_.size() - i);
  }
  freed_horizon_ = kNothingFreed;
}

bool ConservativeScheduler::suffix_waits(std::size_t i, Time now, Time wake) {
  SuffixFrontiers& f = frontiers_;
  if (f.points.empty()) {
    // One backward pass from the queue's end to this loop's first check
    // point i, keeping the running frontier as a staircase (nodes
    // ascending, wcl strictly descending) and copying it out at each check
    // point.
    f.from = i;
    f.shapes.clear();
    f.stair.clear();
    std::vector<Shape>& stair = f.stair;
    for (std::size_t j = queue_.size(); j-- > i;) {
      const Shape shape{queue_[j].wcl, queue_[j].nodes};
      // The shortest shape no wider than it comes last among those.
      std::size_t k = 0;
      while (k < stair.size() && stair[k].nodes <= shape.nodes) ++k;
      if (k == 0 || stair[k - 1].wcl > shape.wcl) {  // not dominated
        const std::size_t lo = k > 0 && stair[k - 1].nodes == shape.nodes ? k - 1 : k;
        std::size_t hi = lo;
        while (hi < stair.size() && stair[hi].wcl >= shape.wcl) ++hi;  // shapes it dominates
        const auto at = stair.begin() + static_cast<std::ptrdiff_t>(lo);
        if (lo == hi) {
          stair.insert(at, shape);
        } else {
          *at = shape;
          stair.erase(at + 1, stair.begin() + static_cast<std::ptrdiff_t>(hi));
        }
      }
      if ((j - i) % kCutStride != 0) continue;
      f.points.push_back({f.shapes.size(), f.shapes.size() + stair.size()});
      f.shapes.insert(f.shapes.end(), stair.begin(), stair.end());
    }
  }
  const auto [begin, end] = f.points[f.points.size() - 1 - (i - f.from) / kCutStride];
  for (std::size_t k = end; k-- > begin;) {  // widest first
    const Shape& shape = f.shapes[k];
    if (plan_->earliest_fit_before(now, wake, shape.wcl, shape.nodes, kUnbounded)) return false;
  }
  return true;
}

void ConservativeScheduler::seed_plan(Time now) {
  if (!plan_ || plan_->capacity() != ctx().total_nodes())
    plan_.emplace(ctx().total_nodes(), now);
  const std::vector<Profile::Busy>& busy = seed_running_usage(*plan_);
  const std::vector<RunningView>& running = ctx().running();
  planned_runs_.clear();
  for (std::size_t k = 0; k < running.size(); ++k)
    planned_runs_.push_back({running[k].id, running[k].nodes, busy[k].end});
}

void ConservativeScheduler::compression_pass(Time now) {
  // Nothing freed reaches past now: every seat is still its earliest fit.
  if (freed_horizon_ <= now) return;
  Profile& plan = *plan_;
  Time freed = freed_horizon_;  // frees since the next seat was placed end by here
  Time moved = kNothingFreed;   // frees by this pass
  for (Entry& entry : queue_) {
    const Time current = entry.reservation;
    // The job's own usage starts at current, so an earlier start fits it
    // iff the part of its window before current fits the plan as it is.
    const std::optional<Time> earlier =
        plan.earliest_fit_before(now, std::min(freed, current), entry.wcl, entry.nodes, current);
    if (!earlier) continue;  // the seat stays: the plan is left untouched
    const Time end = current + entry.wcl;
    plan.remove_usage(current, end, entry.nodes);
    entry.reservation = plan.reserve(*earlier, entry.wcl, entry.nodes);
    if (entry.reservation != *earlier)
      throw std::logic_error("ConservativeScheduler: compression proof disagrees with the plan");
    obs::count(obs::Counter::kSchedCompressReseats);
    freed = std::max(freed, end);
    moved = std::max(moved, end);
  }
  freed_horizon_ = moved;
}

void ConservativeScheduler::full_replan(Time now, obs::Counter cause, std::size_t reordered) {
  obs::count(obs::Counter::kSchedReplanFull);
  obs::count(cause);
  completed_runs_.clear();
  seed_plan(now);

  if (config_.dynamic_reservations) {
    // Plan from scratch in priority order at every event.
    seat_all_from_now(0, now, reordered);
  } else {
    // Static conservative. Pass 1: re-seat stored reservations in stored-start
    // order; a slot only moves later if an over-running job broke it. Brand-new
    // arrivals (kNoTime) are seated last so they cannot delay anyone.
    std::vector<std::size_t> seat_order(queue_.size());
    for (std::size_t i = 0; i < seat_order.size(); ++i) seat_order[i] = i;
    const auto key = [](const Entry& entry) {
      return entry.reservation == kNoTime ? std::numeric_limits<Time>::max() : entry.reservation;
    };
    std::sort(seat_order.begin(), seat_order.end(), [&](std::size_t a, std::size_t b) {
      const Time ka = key(queue_[a]);
      const Time kb = key(queue_[b]);
      if (ka != kb) return ka < kb;
      return queue_[a].id < queue_[b].id;
    });
    for (const std::size_t i : seat_order) {
      Entry& entry = queue_[i];
      const Time old = entry.reservation;
      seat(entry, old == kNoTime ? now : std::max(old, now));
      // A moved seat freed its old window.
      if (old != kNoTime && entry.reservation != old)
        freed_horizon_ = std::max(freed_horizon_, old + entry.wcl);
    }

    // Pass 2: improvement attempts in priority order — higher-priority jobs get
    // the first chance at space freed by early completions. A job keeps its
    // slot unless the found one is strictly earlier.
    compression_pass(now);
  }
}

bool ConservativeScheduler::grow_overruns(Time now) {
  Profile& plan = *plan_;
  for (const RunningView& r : ctx().running()) {
    if (r.est_end > now) continue;
    PlannedRun* run = planned_run(r.id);
    if (!run) return false;
    const Time from = std::max(run->end, now);
    const Time end = assumed_running_end(r, now);
    if (end <= from) continue;
    if (!plan.try_add_usage(from, end, r.nodes)) return false;
    run->end = end;
  }
  return true;
}

void ConservativeScheduler::incremental_replan(Time now, std::size_t reordered, bool overrun) {
  // Counts attempts: a fallback to full_replan counts there too, so full +
  // incremental together bound the replan work actually done.
  obs::count(obs::Counter::kSchedReplanIncremental);
  Profile& plan = *plan_;
  // A rebuild at an event where some job over-runs counts as an over-run
  // rebuild, whatever forced it.
  const auto rebuild = [&](obs::Counter cause) {
    full_replan(now, overrun ? obs::Counter::kSchedReplanFullOverrun : cause, reordered);
  };

  // A completion whose planned usage extends past now frees future capacity.
  // Static mode handles it by returning the usage and compressing; dynamic
  // mode must rebuild (every reservation may shift onto the freed space).
  for (const PlannedRun& run : completed_runs_) {
    if (run.end <= now) continue;
    if (config_.dynamic_reservations) {
      rebuild(obs::Counter::kSchedReplanFullCompletion);
      return;
    }
    plan.remove_usage(now, run.end, run.nodes);
  }
  completed_runs_.clear();

  // Dynamic mode replans only the suffix of the priority order that no
  // longer matches the order the current plan was built in. Jobs launched
  // since remain in the plan as running usage over exactly their
  // reservation interval, so eliding them keeps the planning prefix
  // byte-identical.
  std::size_t prefix = 0;
  if (config_.dynamic_reservations) {
    const std::size_t size = queue_.size();
    prefix = reordered;
    if (prefix > size) {
      prefix = 0;
      while (prefix < size && queue_[prefix].reservation != kNoTime) ++prefix;
    }
    // The seated entries past the prefix are exactly the old plan's suffix.
    std::size_t lifted = 0;
    for (std::size_t i = prefix; i < size; ++i) lifted += queue_[i].reservation != kNoTime;
    if (prefix < lifted) {  // mostly reshuffled: rebuild is cheaper
      rebuild(obs::Counter::kSchedReplanFullReshuffle);
      return;
    }
    for (std::size_t i = prefix; i < size; ++i) {
      const Entry& entry = queue_[i];
      if (entry.reservation != kNoTime)
        plan.remove_usage(entry.reservation, entry.reservation + entry.wcl, entry.nodes);
    }
  }

  // Over-running jobs grow their planned tails. If the growth fits beside
  // every kept seat, the naive rebuild would leave each of them in place
  // (its window still fits, and added usage opens no earlier start).
  if (overrun && !grow_overruns(now)) {
    full_replan(now, obs::Counter::kSchedReplanFullOverrun, reordered);
    return;
  }

  if (config_.dynamic_reservations) {
    seat_all_from_now(prefix, now, reordered);
    return;
  }

  // Static mode: existing reservations are untouched by arrivals (the naive
  // pass 1 re-seats them at exactly their stored slots), so only the new
  // jobs need seating — last, in record-id order, matching the naive
  // tie-break for kNoTime entries.
  std::vector<std::size_t> arrivals;
  for (std::size_t i = 0; i < queue_.size(); ++i)
    if (queue_[i].reservation == kNoTime) arrivals.push_back(i);
  std::sort(arrivals.begin(), arrivals.end(),
            [&](std::size_t a, std::size_t b) { return queue_[a].id < queue_[b].id; });
  for (const std::size_t i : arrivals) seat(queue_[i], now);
  compression_pass(now);
}

void ConservativeScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  const Time now = ctx().now();

  // Bring the priority order up to date. In dynamic mode a job's seat
  // depends on the jobs ahead of it, so note where a re-sort changed them:
  // the jobs at index >= `reordered` (past the common prefix of the seated
  // pre-sort order and the new order) have new jobs ahead. No re-sort, no
  // such index.
  std::size_t reordered = std::numeric_limits<std::size_t>::max();
  if (config_.dynamic_reservations && queue_.stale(ctx())) {
    std::vector<JobId> seated_before;
    for (const Entry& entry : queue_)
      if (entry.reservation != kNoTime) seated_before.push_back(entry.id);
    refresh_queue(queue_);
    reordered = 0;
    while (reordered < queue_.size() && reordered < seated_before.size() &&
           queue_[reordered].id == seated_before[reordered])
      ++reordered;
  } else {
    refresh_queue(queue_);
  }

  // A running job past its estimate has an assumed end that grows with
  // now; the incremental path grows its planned tail or rebuilds.
  bool overrun = false;
  for (const RunningView& r : ctx().running()) {
    if (r.est_end <= now) {
      overrun = true;
      break;
    }
  }

  if (!plan_valid_) {
    const obs::Counter cause =
        overrun ? obs::Counter::kSchedReplanFullOverrun : obs::Counter::kSchedReplanFullRebuild;
    full_replan(now, cause, reordered);
  } else {
    plan_->advance_origin(now);
    incremental_replan(now, reordered, overrun);
  }
  plan_valid_ = true;

  // Launch everything whose reservation came due, highest priority first;
  // every other reservation bounds the next wakeup.
  NodeCount free = ctx().free_nodes();
  std::optional<Time> wake;
  queue_.retain([&](const Entry& entry) {
    if (entry.reservation == kNoTime) return true;  // cut: seats after the wakeup
    if (entry.reservation > now) {
      if (!wake || entry.reservation < *wake) wake = entry.reservation;
      return true;
    }
    if (entry.nodes > free)
      throw std::logic_error("ConservativeScheduler: reservation due but nodes not free");
    starts.push_back(entry.id);
    free -= entry.nodes;
    if (entry.reservation == now) {
      // The launched job's reservation usage [now, now + wcl) stays in the
      // plan as its running usage (est_end == now + wcl).
      planned_runs_.push_back({entry.id, entry.nodes, now + entry.wcl});
    } else {
      // Stale reservation interval: rebuild next event, proving nothing.
      plan_valid_ = false;
      freed_horizon_ = kUnbounded;
    }
    return false;
  });
  wakeup_ = wake;
}

std::optional<Time> ConservativeScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
