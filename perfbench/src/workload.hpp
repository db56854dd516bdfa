// Workloads of the mt4g-sim benchmark and the runner that measures them.
//
// Each workload is a generated DiscoveryJob list run as a closed loop by one
// process with at most T = min(4, nproc) threads or worker processes: the
// next job is issued only when a slot frees. A pass runs the list at T
// (makespan_s; twice for the fleet lists), once serially (serial_makespan_s)
// and, after each list run, re-serves it from the state the T run persisted
// (rerun_s). perfbench/layers.json maps each per-layer metric to the
// end-to-end metric it should move and the workloads it is meaningful on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "oracle.hpp"

namespace mt4g::perfbench {

enum class Engine {
  kDiscover,      ///< fleet::run_job, one job at a time, threads inside
  kFleetThreads,  ///< fleet::run_sweep over T workers + file ResultCache
  kFleetProcs,    ///< fleet::run_supervised over T procs + RunJournal
};

struct Workload {
  std::string_view name;
  Engine engine = Engine::kDiscover;
  std::vector<std::string> models;  ///< empty = the whole registry
  bool include_mig = false;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::uint32_t threads = 1;        ///< T
  std::string out_dir;              ///< scratch state and trace artifacts
  std::string self_exe;             ///< this binary, for --worker children
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOutcome {
  /// Job executions judged by the oracle, plus the reports of its
  /// tampered-report self-check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< of those, failed, incorrect or misjudged
  std::vector<Metric> metrics;
  /// Every sample behind a median metric, by metric name, for the artifact.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::vector<std::string> errors;  ///< first diagnostics, for stderr
  std::string trace_path;           ///< Chrome trace (traced runs)
  std::vector<std::uint64_t> pass_seeds;  ///< job seed of each pass
};

/// Sets the workload up, measures it for config.seconds (untraced) or runs
/// the traced protocol, and judges every job execution with @p oracle.
RunOutcome run_workload(const RunConfig& config, const Oracle& oracle);

/// Body of `mt4g_bench --set-up NAME T`: times kSetupRepeats set-ups of
/// the workload in this fresh process and prints one sample (s) a line.
int set_up_main(const RunConfig& config);

/// Body of `mt4g_bench --worker`: the fleet worker loop on stdin/stdout,
/// with the metrics registry enabled when @p metrics is set (traced runs).
int worker_main(bool metrics);

/// Writes one reference report per job of the full registry (MIG variants
/// included) at seed 42 into @p dir.
void write_references(const std::string& dir);

}  // namespace mt4g::perfbench
