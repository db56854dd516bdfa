// The fleet job loop, and its in-process transport.
//
// Every fleet run goes through one loop, run_jobs(): a participant claims a
// job, skips it on cancel or fail-fast, replays a prefilled journal result,
// probes the result cache, runs attempts under RetryPolicy (backoff,
// deadline, classification), fills the cache, journals the final outcome
// and only then reports it through on_result and FleetProgress. How ONE
// attempt executes is the transport's business:
//  * run_sweep() (this file) attempts in-process via attempt_job() on the
//    process-wide executor (exec::shared_executor); a job's own nested
//    parallelism (sweep_threads > 1) composes on the same pool;
//  * run_supervised() (supervise.hpp) attempts on a worker process per
//    participant slot, so a crashing job cannot take the coordinator down.
//
// Results are slot-indexed by job order, never by completion order, and
// every attempt rebuilds its Gpu from the job spec — so the result vector is
// identical for any worker count, transport and retry history (gated by
// tests/test_fleet_retry.cpp and tests/test_fleet_supervise.cpp).
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
//  * A journal append that fails never stops the sweep: the run carries on
//    without crash safety and RunJournal::error() names the failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/cache.hpp"
#include "fleet/job.hpp"

namespace mt4g::exec {
class Executor;
}

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
  /// waits): min(backoff_cap_ms, backoff_base_ms << (attempt - 2)) ms.
  std::uint32_t backoff_ms(std::uint32_t attempt) const;
};

class RunJournal;

/// Options every fleet run shares, whichever transport runs its attempts.
struct FleetOptions {
  /// Optional shared result cache probed before and filled after each job.
  /// Only the job loop touches it (worker processes stay cache-blind).
  ResultCache* cache = nullptr;
  /// Optional crash-safe progress log: every final outcome that is neither
  /// a replay nor a skip is appended + fsync'd before on_result sees it.
  RunJournal* journal = nullptr;
  /// Progress callback, invoked once per finished job (journal replays
  /// included) from the participant that finished it, but never
  /// concurrently (serialised internally). @p done counts finished jobs
  /// including this one and arrives strictly in order (1, 2, ..., total);
  /// @p total is the sweep size.
  std::function<void(const JobResult& result, std::size_t done,
                     std::size_t total)>
      on_result;
  /// Optional live counters, updated lock-free as jobs finish. The caller
  /// owns the struct and may poll it from another thread (progress display).
  FleetProgress* progress = nullptr;
  /// One budget for exceptions, timeouts and worker deaths, per job.
  RetryPolicy retry;
  /// Stop claiming new jobs after the first definitive failure; jobs not yet
  /// started finish as JobResult::skipped. Which jobs were already in flight
  /// when the failure landed depends on scheduling — fail-fast trades the
  /// run-to-completion guarantee for latency, and is therefore the only
  /// mode whose result vector is not schedule-independent.
  bool fail_fast = false;
  /// Cooperative cancellation (SIGINT/SIGTERM): when the pointee turns true
  /// the loop stops claiming jobs and starting retries and records those
  /// jobs as skipped, like fail_fast but caller-triggered. Attempts in
  /// flight finish. nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

/// The in-process transport's options.
struct SchedulerOptions : FleetOptions {
  /// Concurrent jobs (the calling thread included);
  /// 0 = std::thread::hardware_concurrency() (min 1), 1 = serial in order.
  std::uint32_t workers = 0;
};

/// What one attempt came to on its transport.
struct TransportAttempt {
  AttemptOutcome outcome;
  /// The worker process died, went silent or broke protocol during the
  /// attempt (outcome.error says how): a retryable failure of the attempt.
  bool crashed = false;
  /// No attempt could start (the worker pool is unusable): the job fails
  /// with outcome.error and this does not count as an attempt.
  bool refused = false;
};

/// Runs attempt @p attempt (1-based) of jobs[@p index] on participant
/// @p slot; no two calls share a slot concurrently.
using AttemptTransport = std::function<TransportAttempt(
    std::size_t index, std::uint32_t attempt, std::uint32_t slot)>;

/// The job loop (see file comment) over @p participants slots of
/// @p executor, the caller included. @p prefilled (from apply_journal) may
/// carry already-final results flagged from_journal — those are reported
/// but neither re-run nor re-journaled.
std::vector<JobResult> run_jobs(const std::vector<DiscoveryJob>& jobs,
                                const FleetOptions& options,
                                std::vector<JobResult> prefilled,
                                exec::Executor& executor,
                                std::uint32_t participants,
                                const AttemptTransport& transport);

/// Runs every job in this process and returns results in job order. Never
/// throws for per-job failures; see JobResult::ok / error.
std::vector<JobResult> run_sweep(const std::vector<DiscoveryJob>& jobs,
                                 const SchedulerOptions& options = {},
                                 std::vector<JobResult> prefilled = {});

}  // namespace mt4g::fleet
