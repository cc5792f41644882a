#include "core/thread_pool.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/trace.hpp"

namespace tdfm::core {

namespace {

// Set for the lifetime of every thread a pool owns; nested for_range calls
// consult it to run inline instead of re-entering the scheduler.
thread_local bool t_in_pool_worker = false;

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;  // NOLINT: intentional singleton

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : size_(std::max<std::size_t>(threads, 1)) {
  workers_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker() { return t_in_pool_worker; }

ThreadPool::InlineScope::InlineScope() : previous_(t_in_pool_worker) {
  t_in_pool_worker = true;
}

ThreadPool::InlineScope::~InlineScope() { t_in_pool_worker = previous_; }

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lk(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(default_threads());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t n) {
  if (in_worker()) return;  // a running job must not tear down its own pool
  // A count this large is a wrapped negative or a typo, not a pool size.
  TDFM_CHECK(n <= 4096, "thread count out of range (use 0 for hardware concurrency)");
  if (n == 0) n = default_threads();
  const std::lock_guard<std::mutex> lk(g_global_mu);
  if (g_global_pool && g_global_pool->size() == n) return;
  g_global_pool.reset();  // joins old workers before the replacement spawns
  g_global_pool = std::make_unique<ThreadPool>(n);
}

std::size_t ThreadPool::global_threads() {
  const std::lock_guard<std::mutex> lk(g_global_mu);
  return g_global_pool ? g_global_pool->size() : default_threads();
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || (job_ != nullptr && job_seq_ != seen); });
    if (stop_) return;
    seen = job_seq_;
    // Keep the job alive past the caller's return via shared ownership: a
    // worker that loses the race for the last chunk may still touch the
    // job's atomics after the caller has been released.
    const std::shared_ptr<Job> job = job_;
    lk.unlock();
    execute_chunks(*job);
    lk.lock();
  }
}

void ThreadPool::execute_chunks(Job& job) {
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) return;
    const std::size_t lo = job.begin + c * job.grain;
    const std::size_t hi = std::min(job.end, lo + job.grain);
    try {
      if (job.trace_parent.empty()) {
        (*job.body)(lo, hi);
      } else {
        // Attribute the chunk to the span that issued the parallel region;
        // the event lands on the executing thread's trace lane.
        obs::Span span(job.trace_parent + "/chunk");
        (*job.body)(lo, hi);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> elk(job.error_mu);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == job.num_chunks) {
      const std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::for_range(std::size_t begin, std::size_t end, std::size_t grain,
                           const RangeFn& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t n = end - begin;
  const std::size_t num_chunks = (n + grain - 1) / grain;
  // Inline paths: serial pool, a single chunk, or a nested call from a pool
  // worker.  Chunks run in ascending order — the same arithmetic as the
  // scheduled path, hence identical bits.
  if (size_ == 1 || num_chunks == 1 || t_in_pool_worker) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &fn;
  if (obs::trace_enabled()) {
    job->trace_parent = obs::current_span_name();
    if (job->trace_parent.empty()) job->trace_parent = "for_range";
  }
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = num_chunks;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    TDFM_CHECK(job_ == nullptr,
               "ThreadPool::for_range is not reentrant from multiple external threads");
    job_ = job;
    ++job_seq_;
  }
  work_cv_.notify_all();
  // The calling thread is one of the pool's threads: mark it as such while
  // it drains chunks so nested parallel regions inside `fn` run inline.
  t_in_pool_worker = true;
  execute_chunks(*job);
  t_in_pool_worker = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return job->done_chunks.load(std::memory_order_acquire) == job->num_chunks;
    });
    job_ = nullptr;
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace tdfm::core
