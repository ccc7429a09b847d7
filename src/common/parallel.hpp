// Shared-memory executor for independent work: a fixed-size ThreadPool
// owned by a process-global ParallelContext, plus the ParallelFor /
// TaskGroup primitives that BatchQueryEngine (one task per concurrency
// slot) and the Monte-Carlo engine (one task per walk batch) run on.
//
// Design contract (see docs/ARCHITECTURE.md, "Parallelism"):
//  * One query, one thread. The numeric kernels (SpMV, reductions,
//    triangular solves, the block LU) never touch the pool: a query runs
//    entirely on the thread that calls it. Parallelism is across
//    independent queries and walk batches only, where it has measured a
//    gain.
//  * The pool is sized once at startup — from --threads, BEPI_THREADS, or
//    std::thread::hardware_concurrency() — and `1` means *no pool at all*:
//    every primitive below degrades to a plain serial loop.
//  * Nested parallelism runs inline: a task already executing on a pool
//    worker that calls ParallelFor/TaskGroup gets the serial path (a batch
//    query that falls through to the MC stage reaches ParallelFor from
//    inside a worker).
//  * Fork-safe: a child forked from a process with a pool inherits none of
//    its worker threads, so the child starts with no pool (serial, as with
//    one thread) and never joins or signals the workers it did not get.
//  * Telemetry: the pool bumps `parallel.tasks` per executed task.
#ifndef BEPI_COMMON_PARALLEL_HPP_
#define BEPI_COMMON_PARALLEL_HPP_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace bepi {

/// std::thread::hardware_concurrency() clamped to at least 1.
int HardwareThreads();

/// Fixed-size thread pool over one mutex-guarded FIFO queue. Tasks must
/// not block on other tasks (TaskGroup::Run from a worker runs inline
/// instead).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task. The callable must not throw out of the pool — wrap
  /// user code in a TaskGroup, which captures exceptions and rethrows them
  /// on Wait.
  void Submit(std::function<void()> task);

  /// True when the calling thread is a worker of *any* ThreadPool. Used to
  /// run nested parallel constructs inline.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
};

/// Process-global owner of the (single) ThreadPool. Thread count is
/// resolved at first use from BEPI_THREADS (default: HardwareThreads());
/// SetNumThreads overrides it, e.g. from the --threads CLI flag. With one
/// thread no pool exists and pool() returns nullptr.
class ParallelContext {
 public:
  static ParallelContext& Global();

  /// Configured width: pool size, or 1 when running serially.
  int num_threads() const;

  /// The pool, or nullptr in single-threaded mode. The pointer is stable
  /// until the next SetNumThreads call.
  ThreadPool* pool() const { return pool_ptr_.load(std::memory_order_acquire); }

  /// Resizes the pool (joining the old one). `n` >= 1; 0 restores the
  /// BEPI_THREADS/hardware default. Must not be called while parallel work
  /// is in flight — intended for process startup and tests.
  Status SetNumThreads(int n);

 private:
  ParallelContext();

  // pthread_atfork handlers: mutex_ is held across fork() so the child
  // never inherits it locked by a thread that no longer exists.
  static void BeforeFork();
  static void AfterForkInParent();
  static void AfterForkInChild();

  mutable std::mutex mutex_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<ThreadPool*> pool_ptr_{nullptr};
  int num_threads_ = 1;
};

/// Blocking fork-join scope. Run() submits to the pool (or runs inline
/// when the pool is null or we are already on a worker); Wait() blocks
/// until every submitted task finished and rethrows the first captured
/// exception. Reusable after Wait().
class TaskGroup {
 public:
  /// `pool` may be null (every Run executes inline).
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);
  /// Blocks until all tasks complete; rethrows the first task exception.
  void Wait();

 private:
  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

/// Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
/// of at most `grain` elements (grain <= 0 is treated as 1), one pool task
/// per chunk. Serial (in-order) when the pool is null, on a worker thread,
/// or when there is only one chunk. Exceptions from `body` propagate.
void ParallelFor(index_t begin, index_t end, index_t grain,
                 const std::function<void(index_t, index_t)>& body);

namespace internal {

/// Startup hook: reads BEPI_THREADS once (positive integer; anything else
/// falls back to HardwareThreads()).
int ThreadsFromEnv();

}  // namespace internal

}  // namespace bepi

#endif  // BEPI_COMMON_PARALLEL_HPP_
