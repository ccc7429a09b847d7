#include "common/parallel.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Set for the lifetime of a worker thread; nested parallel constructs
/// check it to run inline instead of re-entering the pool.
thread_local bool t_on_worker_thread = false;

/// The global context, once constructed; read by the fork handlers.
ParallelContext* g_context = nullptr;

/// The pool a forked child abandoned: its workers exist only in the
/// parent, so the child can neither join nor destroy it. Never freed.
ThreadPool* g_forked_pool = nullptr;

/// One relaxed-atomic bump per executed task. The counter pointer is
/// cached; with metrics disabled each call is a single predictable branch.
void CountTask() {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(tasks, "parallel.tasks");
  tasks->Increment();
}

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  BEPI_CHECK(num_threads >= 1);
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      // Shutdown drains: queued tasks still run before the worker exits.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    CountTask();
    task();
  }
}

namespace internal {

int ThreadsFromEnv() {
  const char* env = std::getenv("BEPI_THREADS");
  if (env == nullptr || *env == '\0') return HardwareThreads();
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > 4096) {
    return HardwareThreads();
  }
  return static_cast<int>(v);
}

}  // namespace internal

ParallelContext::ParallelContext() {
  const Status status = SetNumThreads(internal::ThreadsFromEnv());
  BEPI_CHECK(status.ok());
  g_context = this;
  BEPI_CHECK(pthread_atfork(&ParallelContext::BeforeFork,
                            &ParallelContext::AfterForkInParent,
                            &ParallelContext::AfterForkInChild) == 0);
}

void ParallelContext::BeforeFork() { g_context->mutex_.lock(); }

void ParallelContext::AfterForkInParent() { g_context->mutex_.unlock(); }

void ParallelContext::AfterForkInChild() {
  ParallelContext& ctx = *g_context;
  if (ctx.pool_ != nullptr) g_forked_pool = ctx.pool_.release();
  ctx.pool_ptr_.store(nullptr, std::memory_order_release);
  ctx.num_threads_ = 1;
  ctx.mutex_.unlock();
}

ParallelContext& ParallelContext::Global() {
  static ParallelContext* context = new ParallelContext();  // never destroyed
  return *context;
}

int ParallelContext::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_threads_;
}

Status ParallelContext::SetNumThreads(int n) {
  if (n < 0 || n > 4096) {
    return Status::InvalidArgument("thread count must be in [1, 4096] (or 0 "
                                   "for the hardware default)");
  }
  if (n == 0) n = internal::ThreadsFromEnv();
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == num_threads_) return Status::Ok();
  // Publish null first so no kernel submits to a pool being torn down.
  pool_ptr_.store(nullptr, std::memory_order_release);
  pool_.reset();
  num_threads_ = n;
  if (n > 1) {
    pool_ = std::make_unique<ThreadPool>(n);
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  }
  return Status::Ok();
}

TaskGroup::TaskGroup(ThreadPool* pool) : pool_(pool) {}

TaskGroup::~TaskGroup() {
  // A TaskGroup destroyed with tasks in flight would let them write into
  // freed captures; Wait() here turns that bug into a clean barrier.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr || ThreadPool::OnWorkerThread()) {
    // Serial / nested path: run in place, same exception contract.
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !error_) error_ = error;
    if (--outstanding_ == 0) cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelFor(index_t begin, index_t end, index_t grain,
                 const std::function<void(index_t, index_t)>& body) {
  if (begin >= end) return;
  if (grain <= 0) grain = 1;
  const index_t count = end - begin;
  const index_t chunks = (count + grain - 1) / grain;
  ThreadPool* pool = ParallelContext::Global().pool();
  if (pool == nullptr || ThreadPool::OnWorkerThread() || chunks <= 1) {
    for (index_t b = begin; b < end; b += grain) {
      body(b, std::min(end, b + grain));
    }
    return;
  }
  TaskGroup group(pool);
  for (index_t b = begin; b < end; b += grain) {
    const index_t e = std::min(end, b + grain);
    group.Run([&body, b, e] { body(b, e); });
  }
  group.Wait();
}

}  // namespace bepi
