#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace psched::sim {

namespace {
/// Re-test interval for spared over-running jobs under KillIfNeeded.
constexpr Time kWclRecheckInterval = hours(1);
}  // namespace

SimulationEngine::SimulationEngine(const Workload& workload, EngineConfig config)
    : SimulationEngine(workload, std::move(config), nullptr) {}

SimulationEngine::SimulationEngine(const Workload& workload, EngineConfig config,
                                   std::unique_ptr<Scheduler> scheduler)
    : workload_(workload),
      config_(std::move(config)),
      limiter_(config_.policy.max_runtime),
      scheduler_(scheduler ? std::move(scheduler) : make_scheduler(config_.policy)),
      fairshare_(config_.fairshare_decay, config_.fairshare_period,
                 workload.jobs.empty() ? 0 : workload.jobs.front().submit),
      system_size_(workload.system_size),
      free_nodes_(workload.system_size) {
  workload_.validate();
  scheduler_->attach(*this);
  now_ = workload_.jobs.empty() ? 0 : workload_.jobs.front().submit;

  result_.policy_name = config_.policy.display_name();
  result_.system_size = system_size_;
  result_.original_job_count = workload_.jobs.size();
  result_.segments_of_original.resize(workload_.jobs.size());

  // Seed the record table: all segments up front in preprocessing mode, only
  // segment 0 in chained (checkpoint/restart) mode. Their arrivals are NOT
  // pushed onto the event heap — seeded records are already in (submit, id)
  // order (segments inherit the original's submit; the workload is sorted),
  // so the run loop walks them with a cursor instead. The heap stays
  // O(queue) and a fork inherits the cursor, not O(trace) arrival events.
  for (const Job& original : workload_.jobs) {
    const std::int32_t count = config_.segment_arrival == SegmentArrival::AtOriginalSubmit
                                   ? limiter_.segment_count(original)
                                   : 1;
    for (std::int32_t s = 0; s < count; ++s) {
      const Job segment = limiter_.make_segment(original, s, /*id=*/0, original.submit);
      add_record(segment);
    }
  }
  seeded_end_ = static_cast<JobId>(result_.records.size());
}

SimulationEngine::SimulationEngine(const SimulationEngine& other, JobId target)
    : workload_(other.workload_),
      config_(other.config_),
      limiter_(other.limiter_),
      scheduler_(other.scheduler_->clone()),
      fairshare_(other.fairshare_),
      system_size_(other.system_size_),
      free_nodes_(other.free_nodes_),
      now_(other.now_),
      ran_(true),
      events_(other.events_),
      pending_timers_(other.pending_timers_),
      arrival_limit_(target),
      next_seeded_(other.next_seeded_),
      seeded_end_(std::min<JobId>(other.seeded_end_, target + 1)),
      running_view_(other.running_view_),
      waiting_(other.waiting_),
      waiting_demand_(other.waiting_demand_),
      running_nodes_(other.running_nodes_) {
  if (!scheduler_)
    throw std::logic_error("SimulationEngine::fork: the scheduler does not implement clone()");
  scheduler_->attach(*this);
  config_.record_snapshots = false;  // forks exist only to produce start times

  // The fork's universe ends with job `target` — enforced by capping the
  // seeded-arrival cursor at target + 1 above, a constant-time operation
  // where trimming a record table used to cost O(target). The copied event
  // heap holds only completions / WCL checks / timers (forks require no
  // runtime limiter, so no chained arrivals can be pending): O(queue).
  //
  // A fork keeps only its target's start (fork_start_), not the master's
  // dense per-record vector: the target's is the only start a fork is ever
  // asked for.
}

std::unique_ptr<SimulationEngine> SimulationEngine::fork_for_arrival(JobId target) const {
  if (limiter_.enabled())
    throw std::logic_error(
        "SimulationEngine::fork_for_arrival: runtime-limit segments break the record-id == "
        "workload-index identity forks rely on");
  if (target < 0 || static_cast<std::size_t>(target) >= result_.records.size())
    throw std::out_of_range("SimulationEngine::fork_for_arrival: unknown record id");
  // The state-equivalence argument holds exactly when the target's arrival
  // is the next pending event (the hook fires there); forking any other id
  // would silently yield a start from the wrong universe, so check it.
  const std::optional<PendingEvent> pending = peek_event();
  if (!pending || pending->event.kind != EventKind::Arrive || pending->event.id != target)
    throw std::logic_error(
        "SimulationEngine::fork_for_arrival: only valid from inside the arrival hook for the "
        "target (its arrival must be the next pending event)");
  return std::unique_ptr<SimulationEngine>(new SimulationEngine(*this, target));
}

const Job& SimulationEngine::job(JobId id) const {
  // A fork has no record table; record ids equal workload indices there
  // (fork_for_arrival rejects runtime-limit runs), so the shared immutable
  // job table serves every lookup. Note a master record's job differs from
  // the workload's only in segment bookkeeping (parent/segment fields),
  // which nothing on the fork path reads.
  if (is_fork()) return workload_.jobs.at(static_cast<std::size_t>(id));
  return result_.records.at(static_cast<std::size_t>(id)).job;
}

Time SimulationEngine::record_start(JobId id) const {
  if (is_fork()) return id == arrival_limit_ ? fork_start_ : kNoTime;
  return result_.records.at(static_cast<std::size_t>(id)).start;
}

void SimulationEngine::set_record_start(JobId id, Time at) {
  if (is_fork()) {
    if (id == arrival_limit_) fork_start_ = at;
    return;
  }
  result_.records[static_cast<std::size_t>(id)].start = at;
}

JobId SimulationEngine::add_record(const Job& segment) {
  const auto record_id = static_cast<JobId>(result_.records.size());
  JobRecord record;
  record.job = segment;
  record.job.id = record_id;
  result_.records.push_back(record);
  result_.segments_of_original.at(static_cast<std::size_t>(segment.parent)).push_back(record_id);
  return record_id;
}

void SimulationEngine::advance_accounting(Time to) {
  const Time dt = to - now_;
  if (dt > 0) {
    const double seconds = static_cast<double>(dt);
    result_.busy_proc_seconds += static_cast<double>(running_nodes_) * seconds;
    const NodeCount idle = system_size_ - running_nodes_;
    const NodeCount wasted = std::min(waiting_demand_, idle);
    result_.loc_proc_seconds += static_cast<double>(wasted) * seconds;
  }
  fairshare_.advance(to);
  now_ = to;
}

void SimulationEngine::record_snapshot(JobId id, std::size_t index) {
  // Ids only: the FST reads each job's shape and start from the records.
  ArrivalSnapshot snapshot;
  snapshot.id = id;
  snapshot.at = now_;
  snapshot.running.reserve(running_view_.size());
  for (const RunningView& r : running_view_) snapshot.running.push_back({r.id});
  // The hybrid FST list-schedules the queue in order and stops at the
  // arrival, so the jobs behind it never matter.
  snapshot.waiting.reserve(index + 1);
  for (std::size_t i = 0; i <= index; ++i) snapshot.waiting.push_back({snapshot_queue_[i].id});
  result_.snapshots.at(static_cast<std::size_t>(id)) = std::move(snapshot);
}

std::size_t SimulationEngine::deliver_arrival(JobId id) {
  // Chained segments take fresh ids above every seeded one, so an arrival
  // usually lands at the back.
  waiting_.insert(std::upper_bound(waiting_.begin(), waiting_.end(), id), id);
  waiting_demand_ += job(id).nodes;
  std::size_t stored = 0;
  if (config_.record_snapshots) {
    snapshot_queue_.refresh(*this);
    const std::size_t index = snapshot_queue_.push(*this, id);
    record_snapshot(id, index);
    stored = index + 1;
  }
  scheduler_->on_submit(id);
  return stored;
}

void SimulationEngine::start_job(JobId id) {
  const Job& j = job(id);
  if (j.nodes > free_nodes_)
    throw std::logic_error("engine: scheduler started " + std::to_string(j.nodes) +
                           " nodes with only " + std::to_string(free_nodes_) + " free");
  waiting_demand_ -= j.nodes;
  free_nodes_ -= j.nodes;
  running_nodes_ += j.nodes;
  fairshare_.on_job_start(j.user, j.nodes);

  set_record_start(id, now_);
  if (result_.first_start == kNoTime || now_ < result_.first_start) result_.first_start = now_;

  Time end = now_ + j.runtime;
  bool killed = false;
  if (config_.wcl_enforcement == WclEnforcement::Always && j.wcl < j.runtime) {
    end = now_ + j.wcl;
    killed = true;
  }
  running_view_.push_back({id, j.nodes, now_, now_ + j.wcl});

  if (killed) {
    push_event({end, EventKind::Complete, id});
    // The kill annotation is per-record output; forks produce no records.
    if (!is_fork()) result_.records[static_cast<std::size_t>(id)].killed_at_wcl = true;
  } else {
    push_event({now_ + j.runtime, EventKind::Complete, id});
    if (config_.wcl_enforcement == WclEnforcement::KillIfNeeded && j.wcl < j.runtime)
      push_event({now_ + j.wcl, EventKind::WclCheck, id});
  }
}

void SimulationEngine::deliver_completion(JobId id, Time finish, bool killed) {
  const auto running_it = std::find_if(running_view_.begin(), running_view_.end(),
                                       [id](const RunningView& r) { return r.id == id; });
  if (running_it == running_view_.end()) return;  // already completed (e.g. killed earlier)

  const Job& j = job(id);
  free_nodes_ += j.nodes;
  running_nodes_ -= j.nodes;
  fairshare_.on_job_stop(j.user, j.nodes);
  running_view_.erase(running_it);

  if (!is_fork()) {
    JobRecord& record = result_.records[static_cast<std::size_t>(id)];
    record.finish = finish;
    record.killed_at_wcl = record.killed_at_wcl || killed;
  }
  if (result_.last_finish == kNoTime || finish > result_.last_finish) result_.last_finish = finish;

  scheduler_->on_complete(id);

  // Chain the next runtime-limit segment, if any (Chained mode only; in
  // preprocessing mode every segment was seeded at construction). Guarded on
  // the limiter because a fork's job(id) has no segment parentage to follow
  // — and forks forbid runtime limits anyway, so the guard costs nothing.
  if (config_.segment_arrival == SegmentArrival::Chained && limiter_.enabled()) {
    const Job& original = workload_.jobs.at(static_cast<std::size_t>(j.parent));
    const std::optional<Job> next = limiter_.next_segment(original, j, finish, /*id=*/0);
    if (next) {
      const JobId next_record = add_record(*next);
      push_event({finish, EventKind::Arrive, next_record});
    }
  }
}

void SimulationEngine::remove_started(std::vector<JobId>& starts) {
  // A repeated id fails its second lookup.
  for (const JobId id : starts) {
    const auto it = std::lower_bound(waiting_.begin(), waiting_.end(), id);
    if (it == waiting_.end() || *it != id)
      throw std::logic_error("engine: started a job that is not waiting");
    waiting_.erase(it);
  }
  if (!config_.record_snapshots) return;
  std::sort(starts.begin(), starts.end());
  snapshot_queue_.retain([&](const WaitQueue::Entry& entry) {
    return !std::binary_search(starts.begin(), starts.end(), entry.id);
  });
}

void SimulationEngine::handle_wcl_check(JobId id) {
  const bool running = std::any_of(running_view_.begin(), running_view_.end(),
                                   [id](const RunningView& r) { return r.id == id; });
  if (!running) return;  // finished before the check fired
  const Job& j = job(id);
  // CPlant semantics: the over-running job dies only if some waiting job
  // could start with the freed processors.
  const NodeCount would_be_free = free_nodes_ + j.nodes;
  const bool needed = std::any_of(waiting_.begin(), waiting_.end(),
                                  [&](JobId w) { return job(w).nodes <= would_be_free; });
  if (needed)
    deliver_completion(id, now_, /*killed=*/true);
  else
    push_event({now_ + kWclRecheckInterval, EventKind::WclCheck, id});
}

void SimulationEngine::schedule_timer(Time at) {
  if (at <= now_) at = now_ + 1;
  if (pending_timers_.insert(at).second) push_event({at, EventKind::Timer, kInvalidJob});
}

void SimulationEngine::push_event(const Event& event) {
  events_.push_back(event);
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
}

void SimulationEngine::pop_event() {
  std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
  events_.pop_back();
}

std::optional<SimulationEngine::PendingEvent> SimulationEngine::peek_event() const {
  if (next_seeded_ < seeded_end_) {
    const Event cursor{job(next_seeded_).submit, EventKind::Arrive, next_seeded_};
    // The cursor arrival wins ties against itself never (ids are unique) and
    // loses ties to completions/earlier kinds exactly as a heap entry would:
    // both sides use Event's (at, kind, id) order.
    if (events_.empty() || events_top() > cursor) return PendingEvent{cursor, true};
  }
  if (events_.empty()) return std::nullopt;
  return PendingEvent{events_top(), false};
}

void SimulationEngine::consume_event(const PendingEvent& pending) {
  if (pending.from_cursor)
    ++next_seeded_;
  else
    pop_event();
}

std::size_t SimulationEngine::fork_footprint_bytes() const {
  constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);  // hash-bucket / tree links
  return events_.capacity() * sizeof(Event) +
         waiting_.size() * sizeof(JobId) +
         running_view_.capacity() * sizeof(RunningView) +
         pending_timers_.size() * (sizeof(Time) + 2 * kNodeOverhead);
}

void SimulationEngine::run_loop(const ArrivalHook* hook, JobId run_until) {
  // Count events/invocations in locals (no atomics in the hot loop) and
  // flush once per run_loop call — the destructor also runs on the early
  // fork return and on SimulationCancelled, so partial passes still report.
  // The obs bumps are each one relaxed load when tracing is disarmed.
  struct CounterFlush {
    explicit CounterFlush(SimulationResult* r) : result(r) {}
    SimulationResult* result;
    std::uint64_t events = 0;
    std::uint64_t invocations = 0;
    std::uint64_t snapshot_entries = 0;
    ~CounterFlush() {
      result->events_delivered += events;
      result->scheduler_invocations += invocations;
      obs::count(obs::Counter::kEngineEventsDelivered, events);
      obs::count(obs::Counter::kEngineSchedulerInvocations, invocations);
      obs::count(obs::Counter::kEngineSnapshotEntries, snapshot_entries);
    }
  } flush{&result_};

  std::vector<JobId> starts;
  std::optional<PendingEvent> pending;
  while ((pending = peek_event())) {
    // Cooperative cancellation at the event boundary: engine state here is a
    // consistent between-events snapshot, so a cancelled run can be thrown
    // away without ever exposing a torn result.
    if (config_.stop.stop_requested()) throw SimulationCancelled(config_.stop.reason());
    const Time t = pending->event.at;
    advance_accounting(t);

    // Drain every event at this instant; completions sort before arrivals,
    // and chained segment arrivals pushed "now" are picked up here too.
    while (pending && pending->event.at == t) {
      const Event event = pending->event;
      // The hook fires with the arrival still pending: nothing of this (or
      // any later) job has touched the engine yet, so a fork taken here is
      // byte-identical to a run over the workload truncated after event.id.
      if (hook != nullptr && event.kind == EventKind::Arrive) (*hook)(event.id);
      consume_event(*pending);
      ++flush.events;
      switch (event.kind) {
        case EventKind::Complete:
          deliver_completion(event.id, t, /*killed=*/false);
          break;
        case EventKind::Arrive:
          if (arrival_limit_ != kInvalidJob && event.id > arrival_limit_) break;
          // Snapshot storage may need to grow for chained segments.
          if (config_.record_snapshots &&
              result_.snapshots.size() < result_.records.size())
            result_.snapshots.resize(result_.records.size());
          flush.snapshot_entries += deliver_arrival(event.id);
          break;
        case EventKind::WclCheck:
          handle_wcl_check(event.id);
          break;
        case EventKind::Timer:
          pending_timers_.erase(t);
          break;
      }
      pending = peek_event();
    }

    starts.clear();
    scheduler_->collect_starts(starts);
    ++flush.invocations;
    if (!starts.empty()) {
      for (const JobId id : starts) start_job(id);
      remove_started(starts);
    }

    if (run_until != kInvalidJob && record_start(run_until) != kNoTime) return;

    if (const std::optional<Time> wake = scheduler_->next_wakeup(); wake && !waiting_.empty())
      schedule_timer(*wake);
  }
}

SimulationResult SimulationEngine::run() { return run_with_arrival_hook(nullptr); }

SimulationResult SimulationEngine::run_with_arrival_hook(const ArrivalHook& hook) {
  if (ran_) throw std::logic_error("SimulationEngine::run called twice");
  ran_ = true;
  if (config_.record_snapshots) result_.snapshots.resize(result_.records.size());

  run_loop(hook ? &hook : nullptr, kInvalidJob);

  if (!waiting_.empty())
    throw std::logic_error("engine: simulation ended with " + std::to_string(waiting_.size()) +
                           " jobs still waiting");
  if (!running_view_.empty())
    throw std::logic_error("engine: simulation ended with jobs still running");

  return std::move(result_);
}

Time SimulationEngine::run_until_started(JobId target) {
  if (!is_fork())
    throw std::logic_error("SimulationEngine::run_until_started: not a fork");
  if (target != arrival_limit_)
    throw std::logic_error("SimulationEngine::run_until_started: target is not the fork's job");
  run_loop(nullptr, target);
  const Time start = record_start(target);
  if (start == kNoTime)
    throw std::logic_error("SimulationEngine::run_until_started: fork drained without starting " +
                           std::to_string(target));
  return start;
}

SimulationResult simulate(const Workload& workload, const EngineConfig& config) {
  SimulationEngine engine(workload, config);
  return engine.run();
}

SimulationResult simulate_with(const Workload& workload, const EngineConfig& config,
                               std::unique_ptr<Scheduler> scheduler) {
  SimulationEngine engine(workload, config, std::move(scheduler));
  return engine.run();
}

}  // namespace psched::sim
