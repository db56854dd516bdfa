// Worker-pool discovery scheduler.
//
// run_sweep() fans a job list out across the process-wide executor
// (exec::shared_executor) and returns one JobResult per job, in job order —
// the result vector is identical for any worker count, because each worker
// writes into the slot of the job index it claimed (there is no
// completion-order dependence). Jobs whose DiscoverOptions request
// intra-benchmark sweep parallelism (sweep_threads > 1) nest on the same
// executor without spawning additional threads.
//
// Failure model (see README "Failure model"):
//  * A job that throws is captured as a failed JobResult; the sweep always
//    runs to completion unless fail_fast is set (then unclaimed jobs are
//    recorded as skipped — never silently dropped).
//  * Transient errors are retried up to RetryPolicy::max_attempts with a
//    deterministic exponential backoff. std::invalid_argument and
//    std::out_of_range are permanent (a wrong model name never heals) and
//    fail immediately.
//  * RetryPolicy::timeout_seconds arms a per-attempt wall-clock deadline,
//    checked cooperatively before every stage of the discovery graph; an
//    expired deadline fails the attempt with TimeoutError (retryable,
//    counted in JobResult::timed_out / FleetProgress::timeouts).
//  * Every attempt runs a fresh Gpu from the job spec, so a retried job
//    produces the byte-identical report of a clean run — retries never
//    perturb the determinism contract (gated by tests/test_fleet_retry.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/cache.hpp"
#include "fleet/job.hpp"

namespace mt4g::fleet {

/// Live progress counters of a running sweep. All atomics: safe to poll from
/// a heartbeat thread while workers update them (mt4g_cli fleet --progress).
struct FleetProgress {
  std::atomic<std::size_t> total{0};       ///< sweep size, set once at start
  std::atomic<std::size_t> done{0};        ///< finished jobs (ok or failed)
  std::atomic<std::size_t> cache_hits{0};  ///< jobs served by the ResultCache
  std::atomic<std::size_t> failed{0};      ///< jobs whose final attempt failed
  std::atomic<std::size_t> retries{0};     ///< extra attempts after failures
  std::atomic<std::size_t> timeouts{0};    ///< attempts killed by the deadline
  std::atomic<std::size_t> skipped{0};     ///< jobs dropped by fail-fast
  /// Worker-process deaths absorbed by the supervisor (run_supervised only:
  /// in-process sweeps cannot survive a crash to count it).
  std::atomic<std::size_t> worker_crashes{0};
};

/// Outcome of one job within a sweep.
struct JobResult {
  DiscoveryJob job;
  bool ok = false;
  bool from_cache = false;      ///< served by the ResultCache, not discovery
  std::string error;            ///< last attempt's exception message when !ok
  core::TopologyReport report;  ///< valid only when ok
  double wall_seconds = 0.0;    ///< host time this job took on its worker
  std::uint32_t attempts = 0;   ///< attempts actually made (0 = cache/skip)
  bool retried = false;         ///< more than one attempt was made
  bool timed_out = false;       ///< final attempt hit the wall-clock deadline
  bool skipped = false;         ///< never attempted (fail-fast abort)
  /// Worker processes that died (crash, kill, missed heartbeat, garbage on
  /// the pipe) while running this job. Only run_supervised() can set it —
  /// each crash consumes one attempt from the same retry budget exceptions
  /// use, so a crash-looping job fails with "worker crashed" after
  /// RetryPolicy::max_attempts.
  std::uint32_t worker_crashes = 0;
  bool crashed = false;         ///< final attempt died with the worker
  /// Restored from a --resume run journal, not computed this run. Excluded
  /// from the serialised summary counters (unlike from_cache) so a resumed
  /// aggregate is byte-identical to the uninterrupted run's.
  bool from_journal = false;
};

/// Bounded-retry policy applied per job. The defaults preserve the original
/// fail-fast-per-job semantics: one attempt, no deadline, no backoff.
struct RetryPolicy {
  /// Total attempts per job (first try included); values < 1 read as 1.
  std::uint32_t max_attempts = 1;
  /// Per-attempt wall-clock deadline in seconds; <= 0 = unlimited. Checked
  /// cooperatively before each stage, so the overshoot is bounded by the
  /// longest single stage.
  double timeout_seconds = 0.0;
  /// Deterministic exponential backoff between attempts, see backoff_ms();
  /// base 0 = immediate.
  std::uint32_t backoff_base_ms = 0;
  std::uint32_t backoff_cap_ms = 1000;

  /// Wait before attempt @p attempt (1-based; the first attempt never
  /// waits): min(backoff_cap_ms, backoff_base_ms << (attempt - 2)) ms. The
  /// in-process scheduler and the process supervisor share this schedule.
  std::uint32_t backoff_ms(std::uint32_t attempt) const;
};

struct SchedulerOptions {
  /// Concurrent jobs (the calling thread included);
  /// 0 = std::thread::hardware_concurrency() (min 1), 1 = serial in order.
  std::uint32_t workers = 0;
  /// Optional shared result cache probed before and filled after each run.
  ResultCache* cache = nullptr;
  /// Progress callback, invoked once per finished job from worker threads but
  /// never concurrently (serialised internally). @p done counts finished
  /// jobs including this one, @p total is the sweep size.
  std::function<void(const JobResult& result, std::size_t done,
                     std::size_t total)>
      on_result;
  /// Optional live counters, updated lock-free as jobs finish. The caller
  /// owns the struct and may poll it from another thread (progress display).
  FleetProgress* progress = nullptr;
  /// Retry / timeout / backoff applied to every job.
  RetryPolicy retry;
  /// Stop claiming new jobs after the first definitive failure; jobs not yet
  /// started finish as JobResult::skipped. Which jobs were already in flight
  /// when the failure landed depends on scheduling — fail-fast trades the
  /// run-to-completion guarantee for latency, and is therefore the only
  /// scheduler mode whose result vector is not schedule-independent.
  bool fail_fast = false;
  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointee turns true
  /// the scheduler stops claiming jobs and records the rest as skipped, like
  /// fail_fast but caller-triggered. In-flight jobs finish (in-process) or
  /// are reaped (supervised). nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// Adds one to @p counter of @p progress (null = none) and to the @p metric
/// counter when metrics are on: every fleet event is booked in both views.
void count_event(FleetProgress* progress,
                 std::atomic<std::size_t> FleetProgress::*counter,
                 const char* metric);

/// Books one finished job into @p progress (null = none) and the fleet.*
/// metrics; run_sweep and run_supervised count outcomes through it.
void record_finished(const JobResult& result, FleetProgress* progress);

/// Runs every job and returns results in job order. Never throws for
/// per-job failures; see JobResult::ok / error.
std::vector<JobResult> run_sweep(const std::vector<DiscoveryJob>& jobs,
                                 const SchedulerOptions& options = {});

}  // namespace mt4g::fleet
