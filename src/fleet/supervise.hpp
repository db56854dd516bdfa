// Process-isolated fleet runs — crash containment for discovery sweeps.
//
// run_supervised() is the worker-process transport of the one fleet job loop
// (scheduler.hpp run_jobs): claiming, cancel and fail-fast skips, journal
// replay, the result cache, retries with backoff, classification, journal
// appends and on_result all happen there, exactly as in run_sweep(). What
// this transport adds is where an attempt runs: each participant slot owns
// one worker process (worker_argv, normally the same binary's hidden
// `fleet-worker` entry), spawned on the slot's first attempt. An attempt
// writes one job assignment (proto.hpp line protocol) and blocks on that
// worker's pipe until its done or failed line.
//
// Crash containment: EOF, a garbage line, or silence longer than
// heartbeat_timeout_seconds after the assignment is a crash of that attempt.
// The slot kills and reaps the worker, the attempt counts against the same
// RetryPolicy budget exceptions and timeouts use (JobResult::worker_crashes,
// and JobResult::crashed when it was the final attempt), and the next attempt
// respawns. A worker that dies before its ready line is an idle death: never
// charged to a job, but after 3 × procs of them the pool is unusable and the
// remaining jobs fail with "worker pool unusable". A broken worker can never
// take the coordinator down.
//
// Determinism contract (gated by tests/test_fleet_supervise.cpp): results
// are slot-indexed by job order, workers make exactly one attempt per
// assignment, and every attempt rebuilds its Gpu from the job spec — so the
// result vector, and hence the aggregate report, is byte-identical to
// run_sweep()'s for every procs × sweep_threads combination, crash-healed
// runs included.
//
// Slots block on their pipes, so they run on a dedicated executor of
// procs - 1 threads plus the caller, never on the shared pool; a run whose
// jobs are all journal replays starts no thread and no worker. Teardown
// (shutdown line, stdin EOF, a short grace period, then SIGKILL) reaps every
// worker however the run ends, cancelled runs included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"

namespace mt4g::fleet {

/// The worker-process transport's options.
struct SupervisorOptions : FleetOptions {
  /// Worker processes, one per participant slot; min 1.
  std::uint32_t procs = 2;
  /// Worker command line, argv[0] first (e.g. {"./mt4g_cli", "fleet-worker"}).
  std::vector<std::string> worker_argv;
  /// A worker silent for longer than this (no line of any kind; heartbeats
  /// count) is presumed dead: killed, reaped, and its job crash-contained.
  /// <= 0 disables the liveness check. Must comfortably exceed the worker's
  /// heartbeat period.
  double heartbeat_timeout_seconds = 10.0;
};

/// Runs every job across supervised worker processes; results in job order.
/// @p prefilled (from apply_journal) may carry already-final results flagged
/// from_journal — those are reported but not re-run or re-journaled. Never
/// throws for per-job failures; throws std::invalid_argument for an unusable
/// configuration (empty worker_argv).
std::vector<JobResult> run_supervised(const std::vector<DiscoveryJob>& jobs,
                                      const SupervisorOptions& options,
                                      std::vector<JobResult> prefilled = {});

}  // namespace mt4g::fleet
