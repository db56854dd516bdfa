#include "exec/executor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mt4g::exec {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// > 0 while the current thread is inside a drain() task — a parallel_for
/// issued from there is a nested submission.
thread_local std::uint32_t t_drain_depth = 0;

/// Relaxed monotonic counters behind Executor::stats(); one instance per
/// Executor, shared with every Batch it runs.
struct Counters {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> nested_batches{0};
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> tasks_failed{0};
  std::atomic<std::uint64_t> caller_tasks{0};
  std::atomic<std::uint64_t> pool_tasks{0};
  std::atomic<std::uint64_t> max_queue_depth{0};
  std::atomic<std::uint64_t> caller_busy_ns{0};
  std::atomic<std::uint64_t> pool_busy_ns{0};
  std::atomic<std::uint64_t> queue_wait_ns{0};

  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t seen = max_queue_depth.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
};

struct Batch {
  std::size_t count = 0;
  const IndexedTask* task = nullptr;
  /// Participants allowed besides the caller (pool threads and helping
  /// callers alike), which keeps slot values below max_workers.
  std::uint32_t max_joiners = 0;
  Counters* counters = nullptr;
  // Pooled batches only: submission time and order, and the executor lock
  // and condition variable a waiting caller sleeps on.
  std::uint64_t enqueue_ns = 0;
  std::uint64_t seq = 0;
  std::mutex* join_mutex = nullptr;
  std::condition_variable* join_cv = nullptr;

  std::atomic<std::size_t> next{0};   ///< index claim cursor
  std::atomic<std::size_t> done{0};   ///< finished tasks
  std::uint32_t joiners = 0;          ///< participants that joined (queue lock)
  std::atomic<std::uint32_t> slots{1};  ///< slot 0 is reserved for the caller

  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= count;
  }
  bool finished() const {
    return done.load(std::memory_order_acquire) == count;
  }
};

/// Claims and executes indices until the batch is drained. Returns after the
/// participant's last task; the batch may still have tasks in flight on
/// other participants. @p pooled: a pool thread runs them, not a calling
/// thread (in its own batch or helping a newer one at its join).
void drain(Batch& batch, std::uint32_t slot, bool pooled) {
  while (true) {
    const std::size_t index =
        batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    const std::uint64_t begin_ns = now_ns();
    ++t_drain_depth;
    try {
      (*batch.task)(index, slot);
    } catch (...) {
      batch.counters->tasks_failed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (index < batch.error_index) {
        batch.error_index = index;
        batch.error = std::current_exception();
      }
    }
    --t_drain_depth;
    const std::uint64_t busy_ns = now_ns() - begin_ns;
    Counters& counters = *batch.counters;
    counters.tasks.fetch_add(1, std::memory_order_relaxed);
    if (pooled) {
      counters.pool_tasks.fetch_add(1, std::memory_order_relaxed);
      counters.pool_busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    } else {
      counters.caller_tasks.fetch_add(1, std::memory_order_relaxed);
      counters.caller_busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch.count &&
        batch.join_cv != nullptr) {
      // Locking orders this notify after a waiting caller's finished()
      // check, so the wake-up cannot fall between check and wait.
      { const std::lock_guard<std::mutex> lock(*batch.join_mutex); }
      batch.join_cv->notify_all();
    }
  }
}

}  // namespace

struct Executor::Impl {
  std::mutex queue_mutex;
  std::condition_variable queue_cv;  // pool threads: a batch was submitted
  std::condition_variable join_cv;   // callers: submitted, or one finished
  std::deque<std::shared_ptr<Batch>> queue;  // batches with claimable work
  std::uint64_t next_seq = 0;
  bool stop = false;
  std::vector<std::thread> threads;
  Counters counters;
  std::uint64_t start_ns = now_ns();

  /// Joins the oldest batch submitted after sequence number @p after that
  /// has unclaimed indices and room for one more participant. Called with
  /// queue_mutex held; drops exhausted batches on the way.
  std::shared_ptr<Batch> claim(std::uint64_t after) {
    for (auto it = queue.begin(); it != queue.end();) {
      if ((*it)->exhausted()) {
        it = queue.erase(it);
        continue;
      }
      if ((*it)->seq > after && (*it)->joiners < (*it)->max_joiners) {
        ++(*it)->joiners;
        return *it;
      }
      ++it;
    }
    return nullptr;
  }

  /// A caller's join: until @p own finishes, run tasks of batches submitted
  /// after it — the nested batches its in-flight tasks issue, or newer work
  /// of other callers — and sleep only while none is claimable. Older
  /// batches stay off limits: one task of an outer batch (a whole fleet
  /// job) would hold this caller away from its own join.
  void join(const Batch& own) {
    std::unique_lock<std::mutex> lock(queue_mutex);
    while (!own.finished()) {
      const std::shared_ptr<Batch> batch = claim(own.seq);
      if (!batch) {
        join_cv.wait(lock);
        continue;
      }
      lock.unlock();
      drain(*batch, batch->slots.fetch_add(1, std::memory_order_relaxed),
            /*pooled=*/false);
      lock.lock();
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(queue_mutex);
    while (true) {
      const std::shared_ptr<Batch> batch = claim(0);
      if (!batch) {
        if (stop) return;
        queue_cv.wait(lock);
        continue;
      }
      lock.unlock();
      // Enqueue-to-join latency: how long the submitted batch waited for
      // this worker. Observed live into the metrics registry (when enabled)
      // so queue pressure is visible per run, not just cumulatively.
      const std::uint64_t wait_ns = now_ns() - batch->enqueue_ns;
      counters.queue_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
      obs::Metrics::instance().observe("exec.queue_wait_ns",
                                       static_cast<double>(wait_ns));
      drain(*batch, batch->slots.fetch_add(1, std::memory_order_relaxed),
            /*pooled=*/true);
      lock.lock();
    }
  }
};

Executor::Executor(std::uint32_t pool_threads) : impl_(new Impl) {
  impl_->threads.reserve(pool_threads);
  for (std::uint32_t i = 0; i < pool_threads; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->stop = true;
  }
  impl_->queue_cv.notify_all();
  for (auto& thread : impl_->threads) thread.join();
}

std::uint32_t Executor::pool_threads() const {
  return static_cast<std::uint32_t>(impl_->threads.size());
}

ExecutorStats Executor::stats() const {
  const Counters& c = impl_->counters;
  ExecutorStats stats;
  stats.batches = c.batches.load(std::memory_order_relaxed);
  stats.nested_batches = c.nested_batches.load(std::memory_order_relaxed);
  stats.tasks = c.tasks.load(std::memory_order_relaxed);
  stats.tasks_failed = c.tasks_failed.load(std::memory_order_relaxed);
  stats.caller_tasks = c.caller_tasks.load(std::memory_order_relaxed);
  stats.pool_tasks = c.pool_tasks.load(std::memory_order_relaxed);
  stats.max_queue_depth = c.max_queue_depth.load(std::memory_order_relaxed);
  stats.caller_busy_ns = c.caller_busy_ns.load(std::memory_order_relaxed);
  stats.pool_busy_ns = c.pool_busy_ns.load(std::memory_order_relaxed);
  stats.queue_wait_ns = c.queue_wait_ns.load(std::memory_order_relaxed);
  const std::uint64_t alive_ns = now_ns() - impl_->start_ns;
  const std::uint64_t capacity_ns =
      static_cast<std::uint64_t>(impl_->threads.size()) * alive_ns;
  stats.worker_busy_fraction =
      capacity_ns > 0 ? static_cast<double>(stats.pool_busy_ns) /
                            static_cast<double>(capacity_ns)
                      : 0.0;
  return stats;
}

void Executor::parallel_for(std::size_t count, std::uint32_t max_workers,
                            const IndexedTask& task) {
  if (count == 0) return;
  if (max_workers == 0) max_workers = pool_threads() + 1;

  impl_->counters.batches.fetch_add(1, std::memory_order_relaxed);
  if (t_drain_depth > 0) {
    impl_->counters.nested_batches.fetch_add(1, std::memory_order_relaxed);
  }

  const auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->task = &task;
  batch->counters = &impl_->counters;
  // The caller is always a participant; only the surplus comes from the
  // pool, and never more joiners than there are work items beyond the
  // caller's first claim.
  const std::size_t surplus =
      std::min<std::size_t>(max_workers > 0 ? max_workers - 1 : 0,
                            count > 0 ? count - 1 : 0);
  batch->max_joiners = static_cast<std::uint32_t>(surplus);

  if (batch->max_joiners == 0 || impl_->threads.empty()) {
    // Serial mode: inline on the caller, strict index order.
    drain(*batch, 0, /*pooled=*/false);
  } else {
    batch->enqueue_ns = now_ns();
    batch->join_mutex = &impl_->queue_mutex;
    batch->join_cv = &impl_->join_cv;
    {
      std::lock_guard<std::mutex> lock(impl_->queue_mutex);
      batch->seq = ++impl_->next_seq;
      impl_->queue.push_back(batch);
      impl_->counters.note_queue_depth(impl_->queue.size());
    }
    impl_->queue_cv.notify_all();
    impl_->join_cv.notify_all();
    drain(*batch, 0, /*pooled=*/false);
    impl_->join(*batch);
    {
      std::lock_guard<std::mutex> lock(impl_->queue_mutex);
      for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
        if (it->get() == batch.get()) {
          impl_->queue.erase(it);
          break;
        }
      }
    }
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

Executor& shared_executor() {
  static Executor executor([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }());
  return executor;
}

}  // namespace mt4g::exec
