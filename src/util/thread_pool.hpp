#pragma once
// Work-stealing-free, dead-simple thread pool with a blocking parallel_for.
// Used for the embarrassingly parallel layers of the study: per-job FST
// computation and running independent policy simulations side by side.
//
// Two task classes keep nested waiting safe and cells isolated:
//
//  - *Leaf* tasks are the chunks parallel_for creates. They are pure compute
//    (never block on shared state), so any thread stuck waiting for a
//    parallel_for may execute them ("help-drain") without risk.
//  - *Compound* tasks enter through submit(): whole units of work such as an
//    ExperimentRunner sweep lane, which runs one cell after another. They run
//    only at worker-thread top level, never nested inside another task, so
//    cells stay isolated: a lane help-drained inside another cell's
//    fork-drain wait would charge that cell's wall time and --cell-timeout
//    with a whole other cell.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace psched::util {

/// Carried by a submit()-returned future when the compound task was never
/// queued — submit raced shutdown(), or the `threadpool.submit` fault point
/// fired. The work did not and will not run; a caller that can execute it on
/// its own thread should treat this as degraded parallelism, not failure
/// (ExperimentRunner's sweep lanes do exactly that).
class SubmitRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Enqueue a compound task; the future reports completion/exceptions.
  /// After shutdown() the task is rejected and the returned future carries a
  /// std::runtime_error instead of the call throwing into the submitter.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [0, n), blocking until all complete. Work is divided
  /// into contiguous chunks (deterministic partitioning regardless of thread
  /// timing). Exceptions from fn propagate (first one wins). Safe to call
  /// from inside a pool task: the waiting thread helps drain leaf chunks and
  /// otherwise blocks on a condition variable until some task completes, so
  /// nested parallel_for cannot deadlock and nobody busy-spins.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t min_chunk = 1);

  /// Run one queued *leaf* chunk on the calling thread if any is pending.
  /// Compound tasks are deliberately not eligible (see the header comment).
  bool try_run_one();

  /// Stop accepting compound tasks, drain both queues, and join the workers.
  /// Idempotent; also called by the destructor. Tasks already queued still
  /// run to completion — including any parallel_for they perform while
  /// draining (leaf chunks are exempt from the shutdown rejection; their
  /// waiter drains them itself, so parallel_for keeps working even after
  /// shutdown, degraded to the calling thread).
  void shutdown();

  /// true when the calling thread is currently executing a pool task (worker
  /// top level or help-drained chunk). Used to fall back to serial execution
  /// instead of submitting compound work that could starve.
  static bool in_pool_task();

 private:
  void worker_loop();
  /// Run `task` and publish its completion (bumps completed_epoch_ and wakes
  /// parallel_for waiters blocked on done_cv_).
  void run_task(std::packaged_task<void()>& task);
  std::future<void> enqueue(std::function<void()> task, bool leaf);

  std::size_t size_ = 0;
  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> leaf_tasks_;      ///< help-drainable
  std::queue<std::packaged_task<void()>> compound_tasks_;  ///< workers only
  std::mutex join_mutex_;  ///< serializes concurrent shutdown() calls
  std::mutex mutex_;
  std::condition_variable cv_;       ///< workers: "a task is available"
  std::condition_variable done_cv_;  ///< waiters: "a task completed / a leaf was enqueued"
  std::uint64_t completed_epoch_ = 0;  ///< guarded by mutex_
  bool stopping_ = false;
};

/// Shared process-wide pool, lazily constructed on first use. Size comes from
/// the PSCHED_THREADS environment variable when set (a whole integer >= 1;
/// anything else exits 2 naming the variable), otherwise hardware
/// concurrency.
ThreadPool& global_pool();

/// Convenience wrapper over global_pool().parallel_for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t min_chunk = 1);

}  // namespace psched::util
