#include "fleet/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "exec/executor.hpp"
#include "fleet/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/registry.hpp"

namespace mt4g::fleet {

std::uint32_t RetryPolicy::backoff_ms(std::uint32_t attempt) const {
  if (backoff_base_ms == 0 || attempt < 2) return 0;
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 2, 31);
  const std::uint64_t wait = static_cast<std::uint64_t>(backoff_base_ms)
                             << shift;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(wait, backoff_cap_ms));
}

namespace {

/// Adds one to @p counter of @p progress (null = none) and to the @p metric
/// counter when metrics are on: every fleet event is booked in both views.
void count_event(FleetProgress* progress,
                 std::atomic<std::size_t> FleetProgress::*counter,
                 const char* metric) {
  if (progress) (progress->*counter).fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) obs::Metrics::instance().add(metric);
}

/// Books one finished job into @p progress (null = none) and the fleet.*
/// metrics.
void record_finished(const JobResult& result, FleetProgress* progress) {
  if (result.from_cache) {
    count_event(progress, &FleetProgress::cache_hits, "fleet.cache_hits");
  }
  if (result.skipped) {
    count_event(progress, &FleetProgress::skipped, "fleet.jobs_skipped");
  } else if (!result.ok) {
    count_event(progress, &FleetProgress::failed, "fleet.jobs_failed");
  }
  count_event(progress, &FleetProgress::done, "fleet.jobs_done");
  // A job that needed more than one attempt (or lost a worker) finished
  // degraded even when it ultimately succeeded — the signal an operator
  // alerts on.
  if ((result.retried || result.timed_out || result.worker_crashes > 0) &&
      obs::metrics_enabled()) {
    obs::Metrics::instance().add("fleet.jobs_degraded");
  }
}

}  // namespace

std::vector<JobResult> run_jobs(const std::vector<DiscoveryJob>& jobs,
                                const FleetOptions& options,
                                std::vector<JobResult> prefilled,
                                exec::Executor& executor,
                                std::uint32_t participants,
                                const AttemptTransport& transport) {
  std::vector<JobResult> results = std::move(prefilled);
  results.resize(jobs.size());
  if (jobs.empty()) return results;

  if (options.progress) {
    options.progress->total.store(jobs.size(), std::memory_order_relaxed);
  }

  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(options.retry.max_attempts, 1);

  std::size_t done = 0;  // guarded by finish_mutex
  std::mutex finish_mutex;
  // Set by the first definitive failure under fail_fast; jobs claimed after
  // that finish as skipped results instead of running.
  std::atomic<bool> abort{false};

  const auto cancelled = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  const auto skip = [](JobResult& result, const char* why) {
    result.skipped = true;
    result.ok = false;
    result.error = why;
  };

  const auto finish = [&](JobResult& result) {
    record_finished(result, options.progress);
    // The finished count, the journal and the callback share one lock, so
    // `done` values arrive strictly in order and every outcome a callback
    // observes is already durable. Replays are journaled already; skipped
    // jobs stay out so a resumed run attempts them.
    std::lock_guard<std::mutex> lock(finish_mutex);
    if (options.journal && !result.from_journal && !result.skipped) {
      try {
        options.journal->append(result);
      } catch (const std::exception&) {
        // A dead journal downgrades crash safety, not the sweep; the
        // journal keeps the failure for the caller (RunJournal::error).
      }
    }
    if (options.on_result) options.on_result(result, ++done, jobs.size());
  };

  const auto run_one = [&](std::size_t index, std::uint32_t slot) {
    JobResult& result = results[index];
    result.job = jobs[index];
    if (result.from_journal) {
      finish(result);
      return;
    }
    if (cancelled()) {
      skip(result, "skipped: sweep cancelled");
      finish(result);
      return;
    }
    if (options.fail_fast && abort.load(std::memory_order_relaxed)) {
      skip(result, "skipped: fail-fast abort after an earlier job failed");
      finish(result);
      return;
    }
    // Span names allocate; skip the key() format entirely when not tracing.
    const obs::SpanGuard job_span(
        "fleet.job:",
        obs::tracing_enabled() ? jobs[index].key() : std::string());
    const auto start = std::chrono::steady_clock::now();

    try {
      if (options.cache) {
        if (auto cached = options.cache->get(result.job)) {
          result.report = std::move(*cached);
          result.ok = true;
          result.from_cache = true;
        }
      }
    } catch (...) {
      // A broken cache degrades to a recompute, never fails the job.
    }

    if (!result.from_cache) {
      for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
          if (cancelled()) {
            skip(result, "skipped: sweep cancelled");
            break;
          }
          result.retried = true;
          count_event(options.progress, &FleetProgress::retries,
                      "fleet.retries");
          const std::uint32_t wait_ms = options.retry.backoff_ms(attempt);
          if (wait_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
          }
        }
        result.attempts = attempt;
        TransportAttempt tried;
        {
          const obs::SpanGuard attempt_span(
              "fleet.attempt:",
              obs::tracing_enabled()
                  ? jobs[index].key() + "#" + std::to_string(attempt)
                  : std::string());
          tried = transport(index, attempt, slot);
        }
        AttemptOutcome& outcome = tried.outcome;
        if (tried.refused) {
          result.attempts = attempt - 1;
          result.retried = result.attempts > 1;
          result.ok = false;
          result.error = std::move(outcome.error);
          break;
        }
        // Only the final attempt's verdict counts.
        result.ok = outcome.ok;
        result.error = std::move(outcome.error);
        result.timed_out = outcome.timed_out;
        result.crashed = tried.crashed;
        if (tried.crashed) {
          ++result.worker_crashes;
          count_event(options.progress, &FleetProgress::worker_crashes,
                      "fleet.worker_crashes");
        }
        if (outcome.ok) {
          result.report = std::move(outcome.report);
          break;
        }
        if (outcome.timed_out) {
          count_event(options.progress, &FleetProgress::timeouts,
                      "fleet.timeouts");
        }
        if (outcome.permanent) break;
      }
      if (result.ok && options.cache) {
        try {
          options.cache->put(result.job, result.report);
        } catch (...) {
          // Cache write problems never demote a successful discovery.
        }
      }
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!result.ok && options.fail_fast) {
      abort.store(true, std::memory_order_relaxed);
    }
    finish(result);
  };

  executor.parallel_for(jobs.size(), participants, run_one);
  return results;
}

std::vector<JobResult> run_sweep(const std::vector<DiscoveryJob>& jobs,
                                 const SchedulerOptions& options,
                                 std::vector<JobResult> prefilled) {
  std::uint32_t workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  // Touch the registry once before fanning out. Its lazy singletons are
  // initialisation-thread-safe anyway (C++11 magic statics); warming them here
  // just keeps the first claimed jobs from serialising on the init lock.
  (void)sim::registry_all_names();

  // The shared executor runs the fan-out: workers == 1 degenerates to the
  // serial in-order loop on this thread (same code path, same result
  // layout), and a job's own nested parallelism (sweep_threads > 1 inside
  // discovery) composes on the same pool without spawning extra threads.
  const double timeout_seconds = options.retry.timeout_seconds;
  return run_jobs(jobs, options, std::move(prefilled),
                  exec::shared_executor(), workers,
                  [&jobs, timeout_seconds](std::size_t index, std::uint32_t,
                                           std::uint32_t) {
                    return TransportAttempt{
                        attempt_job(jobs[index], timeout_seconds)};
                  });
}

}  // namespace mt4g::fleet
