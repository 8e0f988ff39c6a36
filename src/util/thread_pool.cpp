#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/parse.hpp"

namespace psched::util {

namespace {
thread_local bool t_in_pool_task = false;
}  // namespace

bool ThreadPool::in_pool_task() { return t_in_pool_task; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  size_ = threads;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  done_cv_.notify_all();
  const std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

std::future<void> ThreadPool::enqueue(std::function<void()> task, bool leaf) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> result = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Leaf chunks stay accepted while stopping: a queued compound task that
    // calls parallel_for during the shutdown drain must still complete (the
    // drain guarantee), and a leaf's waiter always drains pending chunks via
    // wait(), so leaf work cannot outlive its waiter even with zero workers
    // left.
    if (stopping_ && !leaf) {
      // Reject via the future, not by throwing into the caller: shutdown can
      // race submission from another thread, and the caller already has a
      // uniform error path through future.get().
      std::promise<void> rejected;
      rejected.set_exception(
          std::make_exception_ptr(SubmitRejected("ThreadPool::submit after shutdown")));
      return rejected.get_future();
    }
    (leaf ? leaf_tasks_ : compound_tasks_).push(std::move(packaged));
    obs::count(leaf ? obs::Counter::kPoolTasksLeaf : obs::Counter::kPoolTasksCompound);
    obs::record_max(obs::Counter::kPoolQueueDepthHighWater,
                    leaf_tasks_.size() + compound_tasks_.size());
  }
  cv_.notify_one();
  if (leaf) done_cv_.notify_all();  // waiters may help with leaf work
  return result;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  if (const int injected = PSCHED_FAULT("threadpool.submit")) {
    std::promise<void> rejected;
    rejected.set_exception(std::make_exception_ptr(SubmitRejected(
        std::string("ThreadPool::submit: injected fault: ") + std::strerror(injected))));
    return rejected.get_future();
  }
  return enqueue(std::move(task), /*leaf=*/false);
}

void ThreadPool::run_task(std::packaged_task<void()>& task) {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  task();  // packaged_task captures exceptions into the future
  t_in_pool_task = was_in_task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++completed_epoch_;
  }
  done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock,
               [this] { return stopping_ || !leaf_tasks_.empty() || !compound_tasks_.empty(); });
      if (stopping_ && leaf_tasks_.empty() && compound_tasks_.empty()) return;
      // Leaf chunks first: they are the inner loops of whatever compound
      // work is already in flight, and finishing them unblocks waiters.
      auto& queue = !leaf_tasks_.empty() ? leaf_tasks_ : compound_tasks_;
      task = std::move(queue.front());
      queue.pop();
    }
    run_task(task);
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                              std::size_t min_chunk) {
  if (n == 0) return;
  min_chunk = std::max<std::size_t>(1, min_chunk);
  const std::size_t max_chunks = (n + min_chunk - 1) / min_chunk;
  const std::size_t chunks = std::min(std::max<std::size_t>(1, size() * 4), max_chunks);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  if (chunks == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(enqueue(
        [lo, hi, &fn] {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        },
        /*leaf=*/true));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    wait(future);
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::future<void> ThreadPool::submit_leaf(std::function<void()> task) {
  return enqueue(std::move(task), /*leaf=*/true);
}

void ThreadPool::wait(const std::future<void>& future) {
  const auto ready = [&] {
    return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  // Help drain leaf chunks while waiting so nested waits from worker threads
  // make progress instead of deadlocking. When no leaf work is pending, block
  // on done_cv_ (woken on every task completion and leaf enqueue) instead of
  // spinning; the epoch snapshot closes the window where the task completes
  // between the readiness check and the wait.
  while (!ready()) {
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (!leaf_tasks_.empty()) continue;  // help with the chunk that just appeared
    const std::uint64_t epoch = completed_epoch_;
    lock.unlock();
    if (ready()) return;
    lock.lock();
    done_cv_.wait(lock, [&] { return completed_epoch_ != epoch || !leaf_tasks_.empty(); });
  }
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (leaf_tasks_.empty()) return false;
    task = std::move(leaf_tasks_.front());
    leaf_tasks_.pop();
  }
  run_task(task);
  return true;
}

ThreadPool& global_pool() {
  // 0 (unset or empty) selects hardware concurrency.
  static ThreadPool pool(
      env_number("PSCHED_THREADS", std::size_t{0}, "an integer >= 1", std::size_t{1}));
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn, std::size_t min_chunk) {
  global_pool().parallel_for(n, fn, min_chunk);
}

}  // namespace psched::util
