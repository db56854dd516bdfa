#include "workload.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <cmath>
#include <functional>
#include <map>
#include <memory_resource>
#include <optional>
#include <unordered_map>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "common/rng.hpp"
#include "core/cache_config.hpp"
#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"
#include "exec/executor.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/kernels.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace mt4g::perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"nv-l2", Engine::kDiscover, {"A100", "H100-80", "B100-preview"}, false},
      {"amd-cu",
       Engine::kDiscover,
       {"MI100", "MI210", "MI300X", "MI355X-preview"},
       false},
      {"fleet-threads", Engine::kFleetThreads, {}, true},
      {"fleet-procs", Engine::kFleetProcs, {}, true},
  };
  return list;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

namespace {

// Set-up takes under a millisecond, so a fresh process repeats it this many
// times ...
constexpr int kSetupRepeats = 5;
// ... and this many such processes run before every list run and rerun
// burst; setup_s is the fastest of all their samples.
constexpr int kSetupProcs = 8;
// Re-serving from persisted state takes milliseconds; every list run is
// followed by a burst of this many timed reruns, so rerun samples spread over
// the whole run instead of one slow or fast moment.
constexpr int kReruns = 24;
// The time metrics are reported for a host on which one HostProbe::run()
// takes this long (about its median on the 4-core Xeon the benchmark was
// tuned on) ...
constexpr double kProbeReferenceSeconds = 0.008;
// ... assuming they scale with the probe time to this power: the log-log
// slope of raw time over median probe time across ten nv-l2 runs was 1.5
// for makespan_s and serial_makespan_s (r^2 0.87, 0.93), 1.7 for rerun_s and
// 1.3 for setup_s; the workload gains and loses more than the probe does
// when the host speeds up or slows down.
constexpr double kHostElasticity = 1.5;
// Repeats of each single-threaded per-layer probe (sim, json, proto, cache).
constexpr int kProbeRepeats = 3;
// The sim.load_ns probe: one L1-bypassing p-chase over 1 MiB.
constexpr std::uint64_t kProbeChaseBytes = 1 << 20;
constexpr std::uint32_t kProbeChaseStride = 64;

/// Host-time interval around one public call. close() records it as a span
/// of the shared trace (Tracer::record drops it while tracing is off).
class Span {
 public:
  explicit Span(std::string name)
      : name_(std::move(name)), start_(obs::monotonic_ns()) {}

  /// Ends the span; returns its length in seconds.
  double close() {
    const std::uint64_t end = obs::monotonic_ns();
    obs::Tracer::instance().record(std::move(name_), start_, end);
    return static_cast<double>(end - start_) * 1e-9;
  }

 private:
  std::string name_;
  std::uint64_t start_;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

/// Noise seed of pass @p index of a run: the run seed mixed with the index,
/// so passes average over seed-dependent work and neighbouring run seeds
/// draw unrelated inputs.
std::uint64_t pass_seed(std::uint64_t run_seed, std::uint32_t index) {
  std::uint64_t state = run_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1ULL));
  return splitmix64(state) >> 16;  // 48 bits: a JSON integer as is
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (double value : values) total += value;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Registry build + freeze, job expansion and executor start: everything a
/// pass needs before the first discovery.
std::vector<fleet::DiscoveryJob> set_up(const RunConfig& config) {
  sim::ModelRegistry registry = sim::builtin_registry();
  registry.freeze();
  fleet::SweepPlan plan;
  plan.models = config.workload->models;
  plan.first_seed = config.seed;
  plan.include_mig = config.workload->include_mig;
  plan.registry = &registry;
  std::vector<fleet::DiscoveryJob> jobs = fleet::expand_jobs(plan);
  exec::Executor executor(config.threads - 1);
  return jobs;
}

/// Runs `mt4g_bench --set-up` and appends its set-up samples to @p samples.
/// A fresh process has a fresh heap, so the samples do not depend on what
/// earlier passes left behind in this one (up to 1 GB, which made in-process
/// samples after a pass 1.5-2x slower by turns).
void sample_set_up(const RunConfig& config, std::vector<double>& samples) {
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("set-up process: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::string exe = config.self_exe;
  std::string flag = "--set-up";
  std::string name(config.workload->name);
  std::string threads = std::to_string(config.threads);
  char* argv[] = {exe.data(), flag.data(), name.data(), threads.data(),
                  nullptr};
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[4096];
    ssize_t got = 0;
    while ((got = ::read(out[0], buffer, sizeof buffer)) > 0) {
      text.append(buffer, static_cast<std::size_t>(got));
    }
  }
  ::close(out[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process " + exe + " --set-up failed");
  }
  std::istringstream in(text);
  const std::size_t before = samples.size();
  for (double sample = 0.0; in >> sample;) samples.push_back(sample);
  if (samples.size() == before) {
    throw std::runtime_error("set-up process printed nothing");
  }
}

/// Restarts this process's peak-RSS watermark (VmHWM), so each T run
/// reports its own peak instead of the maximum over the whole run.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// This process's peak RSS since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Peak RSS of the largest worker process reaped so far, in MB.
double worker_peak_rss_mb() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

/// The host's current speed. The shared host drifts over minutes (its
/// neighbours load the same cores and caches) and every time metric of a run
/// moves with it: on nv-l2, runs a few minutes apart differed by 30-45% in
/// makespan, rerun and set-up alike. The probe times a fixed mix of the kind
/// of work the simulator does, written here and independent of the library:
/// a pointer chase over an L2-sized table, hash-map inserts and lookups, and
/// a sort. A run takes it between its list runs and rescales its time
/// metrics by (kProbeReferenceSeconds / median probe time)^kHostElasticity.
/// A DRAM-latency chase or an ALU loop alone tracked the workload worse.
class HostProbe {
 public:
  HostProbe()
      : chase_(kChaseEntries),
        arena_(kArenaBytes),
        keys_(kSortKeys),
        sorted_(kSortKeys) {
    // Sattolo's shuffle: one cycle through the whole table.
    std::uint64_t state = 1;
    for (std::uint32_t i = 0; i < kChaseEntries; ++i) chase_[i] = i;
    for (std::uint32_t i = kChaseEntries - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[splitmix64(state) % i]);
    }
    for (auto& key : keys_) key = splitmix64(state);
  }

  void run() {
    const std::uint64_t start = obs::monotonic_ns();
    std::uint32_t at = 0;
    for (int i = 0; i < kChaseSteps; ++i) at = chase_[at];
    {
      // The map lives in its own arena, so the heap the library left behind
      // cannot change the probe's time.
      std::pmr::monotonic_buffer_resource pool(
          arena_.data(), arena_.size(), std::pmr::null_memory_resource());
      std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
      std::uint64_t state = 2;
      for (int i = 0; i < kMapOps; ++i) map[splitmix64(state) % kMapKeys] = i;
      for (int i = 0; i < kMapOps; ++i) {
        at += map.count(splitmix64(state) % kMapKeys);
      }
    }
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    sink_ += at + sorted_[kSortKeys / 2];
    samples_.push_back(static_cast<double>(obs::monotonic_ns() - start) *
                       1e-9);
  }

  /// (kProbeReferenceSeconds / median probe time)^kHostElasticity; 1
  /// before the first run.
  double scale() const {
    if (samples_.empty()) return 1.0;
    return std::pow(kProbeReferenceSeconds / median(samples_),
                    kHostElasticity);
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::uint32_t kChaseEntries = 1u << 16;  // 256 KiB
  static constexpr int kChaseSteps = 300000;
  static constexpr int kMapOps = 20000;
  static constexpr std::uint64_t kMapKeys = 50000;
  static constexpr std::size_t kSortKeys = 50000;
  static constexpr std::size_t kArenaBytes = 4 << 20;
  std::vector<std::uint32_t> chase_;
  std::vector<std::byte> arena_;
  std::vector<std::uint64_t> keys_, sorted_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

struct ListRun {
  std::vector<fleet::JobResult> results;
  double seconds = 0.0;       ///< wall time of the whole list
  double save_seconds = 0.0;  ///< ResultCache::save of the persisted state
};

struct Rerun {
  std::vector<fleet::JobResult> results;
  double seconds = 0.0;       ///< load included
  double load_seconds = 0.0;  ///< ResultCache load or journal replay
};

/// Host observations of one traced T run, for the per-layer metrics.
struct LayerCapture {
  exec::ExecutorStats exec_before, exec_after;
  std::vector<obs::MetricSample> metrics;  ///< registry delta over the run
};

struct Pass {
  std::vector<ListRun> threaded;  ///< threaded_runs(engine) T runs
  std::vector<double> threaded_rss_mb;  ///< this process's peak per T run
  ListRun serial;
  std::vector<Rerun> reruns;  ///< timed reruns of every burst
};

/// T runs per pass. A fleet list run is one makespan sample, against one
/// sample per job for the one-at-a-time kDiscover lists, so fleet passes
/// run the list twice at T for each (three times longer) serial run.
int threaded_runs(Engine engine) { return engine == Engine::kDiscover ? 1 : 2; }

class Runner {
 public:
  Runner(const RunConfig& config, const Oracle& oracle,
         std::vector<fleet::DiscoveryJob> jobs)
      : config_(config),
        oracle_(oracle),
        jobs_(std::move(jobs)),
        state_dir_(config.out_dir + "/state-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(state_dir_);
  }
  ~Runner() {
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const std::vector<fleet::DiscoveryJob>& jobs() const { return jobs_; }

  /// Runs one pass over the job list reseeded with @p seed — its T runs,
  /// the serial run, and a burst of reruns after each — and judges every job
  /// execution in it. With @p capture, also records the executor and
  /// metrics deltas around the first T run.
  Pass pass(std::uint64_t seed, bool traced, LayerCapture* capture = nullptr) {
    pass_jobs_ = jobs_;
    for (auto& job : pass_jobs_) job.seed = seed;
    // An earlier pass at the same seed must have produced the same bytes.
    std::vector<std::string>& expected = bytes_by_seed_[seed];
    Pass pass;
    Span span("pass:seed=" + std::to_string(seed));
    for (int i = 0; i < threaded_runs(config_.workload->engine); ++i) {
      if (capture && i == 0) {
        capture->exec_before = exec::shared_executor().stats();
      }
      const auto metrics_before = obs::Metrics::instance().snapshot();
      if (between_lists) between_lists();
      reset_peak_rss();
      pass.threaded.push_back(
          run_list(config_.threads, "threaded", true, traced));
      pass.threaded_rss_mb.push_back(peak_rss_mb());
      if (capture && i == 0) {
        capture->exec_after = exec::shared_executor().stats();
        capture->metrics = obs::Metrics::delta(
            metrics_before, obs::Metrics::instance().snapshot());
      }
      const auto& results = pass.threaded.back().results;
      for (std::size_t j = 0; j < results.size(); ++j) {
        const std::string bytes =
            results[j].ok ? canonical_bytes(results[j].report) : std::string();
        if (expected.size() <= j) {
          expected.push_back(bytes);
          record(oracle_.judge(results[j]));
        } else {
          record(oracle_.judge(results[j], &expected[j], "same-seed"));
        }
      }
      rerun_burst(expected, traced, pass.reruns);
    }
    if (between_lists) between_lists();
    pass.serial = run_list(1, "serial", false, traced);
    for (std::size_t j = 0; j < pass.serial.results.size(); ++j) {
      record(oracle_.judge(pass.serial.results[j], &expected[j], "threaded"));
    }
    rerun_burst(expected, traced, pass.reruns);
    span.close();
    return pass;
  }

  /// The persisted T-run state of the last pass: ResultCache file path
  /// (kDiscover, kFleetThreads) or journal path (kFleetProcs).
  std::string state_path(const char* tag) const {
    return state_dir_ + "/" + tag +
           (config_.workload->engine == Engine::kFleetProcs ? ".journal"
                                                            : ".cache.json");
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Called before every list run and rerun burst, if set: the untraced
  /// runs take their host probes and set-up samples there, spread over the
  /// run.
  std::function<void()> between_lists;

 private:
  std::vector<std::string> worker_argv(bool traced) const {
    std::vector<std::string> argv = {config_.self_exe, "--worker"};
    if (traced) argv.emplace_back("--metrics");
    return argv;
  }

  /// The list once at @p threads: T run or serial reference. With
  /// @p persist, leaves the state a rerun re-serves the list from.
  ListRun run_list(std::uint32_t threads, const char* tag, bool persist,
                   bool traced) {
    ListRun run;
    const std::string state = state_path(tag);
    std::filesystem::remove(state);
    Span list(std::string("list:") + tag);
    switch (config_.workload->engine) {
      case Engine::kDiscover: {
        for (const auto& base : pass_jobs_) {
          fleet::JobResult result;
          result.job = base;
          result.job.options.bench_threads = threads;
          result.job.options.sweep_threads = threads;
          Span job("job:" + job_label(base));
          Span call("call:fleet::run_job");
          try {
            result.report = fleet::run_job(result.job);
            result.ok = true;
          } catch (const std::exception& e) {
            result.error = e.what();
          }
          result.wall_seconds = call.close();
          job.close();
          run.results.push_back(std::move(result));
        }
        run.seconds = list.close();
        if (persist) {
          fleet::ResultCache cache(state);
          for (const auto& result : run.results) {
            if (result.ok) cache.put(result.job, result.report);
          }
          Span save("call:fleet::ResultCache::save");
          if (!cache.save()) throw std::runtime_error("cannot save " + state);
          run.save_seconds = save.close();
        }
        return run;
      }
      case Engine::kFleetThreads: {
        fleet::ResultCache cache(state);
        fleet::SchedulerOptions options;
        options.workers = threads;
        options.cache = &cache;
        Span call("call:fleet::run_sweep");
        run.results = fleet::run_sweep(pass_jobs_, options);
        call.close();
        Span save("call:fleet::ResultCache::save");
        if (!cache.save()) throw std::runtime_error("cannot save " + state);
        run.save_seconds = save.close();
        break;
      }
      case Engine::kFleetProcs: {
        Span open("call:fleet::RunJournal::open");
        fleet::RunJournal journal = fleet::RunJournal::open(state);
        open.close();
        fleet::SupervisorOptions options;
        options.procs = threads;
        options.worker_argv = worker_argv(traced);
        options.journal = &journal;
        Span call("call:fleet::run_supervised");
        run.results = fleet::run_supervised(pass_jobs_, options);
        call.close();
        journal.close();
        break;
      }
    }
    run.seconds = list.close();
    return run;
  }

  /// Re-serves the whole list from the state the last T run persisted.
  Rerun rerun(bool traced) {
    Rerun rerun;
    const std::string state = state_path("threaded");
    Span list("list:rerun");
    if (config_.workload->engine == Engine::kFleetProcs) {
      Span replay("call:fleet::load_journal+apply_journal");
      std::vector<fleet::JobResult> prefilled;
      // Jobs the journal does not answer would rerun; rerun_burst() flags
      // them.
      fleet::apply_journal(pass_jobs_, fleet::load_journal(state), prefilled);
      rerun.load_seconds = replay.close();
      fleet::SupervisorOptions options;
      options.procs = config_.threads;
      options.worker_argv = worker_argv(traced);
      Span call("call:fleet::run_supervised");
      rerun.results =
          fleet::run_supervised(pass_jobs_, options, std::move(prefilled));
      call.close();
    } else {
      Span load("call:fleet::ResultCache::load");
      fleet::ResultCache cache(state);
      rerun.load_seconds = load.close();
      fleet::SchedulerOptions options;
      options.workers = config_.workload->engine == Engine::kDiscover
                            ? 1
                            : config_.threads;
      options.cache = &cache;
      Span call("call:fleet::run_sweep");
      rerun.results = fleet::run_sweep(pass_jobs_, options);
      call.close();
    }
    rerun.seconds = list.close();
    return rerun;
  }

  void record(const std::string& verdict) {
    ++attempted;
    if (verdict.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(verdict);
  }

  /// kReruns timed reruns after one untimed one: the first rerun after a
  /// multi-second list pays for the caches and pages that list evicted.
  /// Every rerun is judged against the T run's bytes.
  void rerun_burst(const std::vector<std::string>& expected, bool traced,
                   std::vector<Rerun>& timed) {
    if (between_lists) between_lists();
    for (int i = 0; i <= kReruns; ++i) {
      Rerun served = rerun(traced);
      for (std::size_t j = 0; j < served.results.size(); ++j) {
        const fleet::JobResult& result = served.results[j];
        if (result.ok && !result.from_cache && !result.from_journal) {
          record(job_label(result.job) +
                 ": rerun recomputed the job instead of re-serving it");
        } else {
          record(oracle_.judge(result, &expected[j], "cold"));
        }
      }
      if (i > 0) timed.push_back(std::move(served));
    }
  }

  const RunConfig& config_;
  const Oracle& oracle_;
  std::vector<fleet::DiscoveryJob> jobs_;
  std::string state_dir_;
  std::vector<fleet::DiscoveryJob> pass_jobs_;  ///< jobs_ at the pass seed
  std::map<std::uint64_t, std::vector<std::string>> bytes_by_seed_;
};

double median_list_seconds(const std::vector<ListRun>& runs) {
  std::vector<double> seconds;
  for (const auto& run : runs) seconds.push_back(run.seconds);
  return median(std::move(seconds));
}

/// Appends each job's wall time in @p run to its sample list.
void add_job_walls(const ListRun& run,
                   std::vector<std::vector<double>>& walls) {
  walls.resize(run.results.size());
  for (std::size_t j = 0; j < run.results.size(); ++j) {
    walls[j].push_back(run.results[j].wall_seconds);
  }
}

double sum_of_medians(const std::vector<std::vector<double>>& walls) {
  double total = 0.0;
  for (const auto& samples : walls) total += median(samples);
  return total;
}

double simulated_seconds(const ListRun& run) {
  double total = 0.0;
  for (const auto& result : run.results) {
    total += result.report.simulated_seconds;
  }
  return total;
}

/// Count and summed value of one histogram, over the registry delta
/// (in-process engines) or over the reports' meta.wall blocks (worker
/// processes, whose registries the coordinator cannot read).
std::pair<double, double> histogram(const std::string& name,
                                    const LayerCapture& capture,
                                    const ListRun& run, bool from_reports) {
  double count = 0.0;
  double sum = 0.0;
  if (from_reports) {
    for (const auto& result : run.results) {
      for (const auto& sample : result.report.wall.samples) {
        if (sample.name == name) {
          count += static_cast<double>(sample.count);
          sum += sample.value;
        }
      }
    }
  } else {
    for (const auto& sample : capture.metrics) {
      if (sample.name == name) {
        count = static_cast<double>(sample.count);
        sum = sample.value;
      }
    }
  }
  return {count, sum};
}

template <class F>
double median_seconds(int repeats, F&& body) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t start = obs::monotonic_ns();
    body();
    samples.push_back(static_cast<double>(obs::monotonic_ns() - start) * 1e-9);
  }
  return median(std::move(samples));
}

std::optional<sim::MigProfile> mig_of(const sim::GpuSpec& spec,
                                      const std::string& name) {
  for (const auto& profile : spec.mig_profiles) {
    if (profile.name == name) return profile;
  }
  return std::nullopt;
}

/// Single-threaded probes of the sim layer over the workload's GPUs:
/// construction, fork, and a fixed 1 MiB L1-bypass p-chase.
void probe_sim(const std::vector<fleet::DiscoveryJob>& jobs,
               std::vector<Metric>& out) {
  double ctor_s = 0.0;
  double fork_s = 0.0;
  double chase_s = 0.0;
  double loads = 0.0;
  double cycles = 0.0;
  for (const auto& job : jobs) {
    const sim::GpuSpec spec =
        core::apply_cache_config(*job.spec, job.cache_config);
    const auto mig = mig_of(spec, job.mig_profile);
    ctor_s += median_seconds(kProbeRepeats,
                             [&] { sim::Gpu gpu(spec, job.seed, mig); });
    sim::Gpu gpu(spec, job.seed, mig);
    fork_s += median_seconds(kProbeRepeats,
                             [&] { (void)gpu.fork(job.seed + 1); });
    runtime::PChaseConfig chase;
    chase.flags.bypass_l1 = true;
    chase.base = gpu.alloc(kProbeChaseBytes);
    chase.array_bytes = kProbeChaseBytes;
    chase.stride_bytes = kProbeChaseStride;
    runtime::PChaseResult result;
    chase_s += median_seconds(
        kProbeRepeats, [&] { result = runtime::run_pchase(gpu, chase); });
    loads += static_cast<double>(result.timed_loads +
                                 runtime::pchase_steps(chase));
    cycles += static_cast<double>(result.total_cycles);
  }
  out.push_back({"sim.gpu_ctor_ms", "ms", ctor_s * 1e3});
  out.push_back({"sim.fork_ms", "ms", fork_s * 1e3});
  out.push_back({"sim.load_ns", "ns", ratio(chase_s * 1e9, loads)});
  out.push_back({"sim.host_ns_per_cycle", "ns", ratio(chase_s * 1e9, cycles)});
}

/// Codec probes: report JSON write/read and the worker wire protocol.
void probe_codecs(const std::vector<fleet::DiscoveryJob>& jobs,
                  const ListRun& run, std::vector<Metric>& out) {
  std::vector<double> write, read, job_line, done_line;
  std::string reason;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const core::TopologyReport& report = run.results[i].report;
    std::string text;
    write.push_back(median_seconds(
        kProbeRepeats, [&] { text = core::to_json_string(report); }));
    read.push_back(median_seconds(
        kProbeRepeats, [&] { (void)core::from_json_string(text); }));
    job_line.push_back(median_seconds(kProbeRepeats, [&] {
      (void)fleet::parse_worker_command(
          fleet::encode_job_assignment(jobs[i], i, 1, 0.0), &reason);
    }));
    done_line.push_back(median_seconds(kProbeRepeats, [&] {
      (void)fleet::parse_worker_message(
          fleet::encode_done(i, jobs[i].key(), report, 0.0), &reason);
    }));
  }
  out.push_back({"fleet.proto.job_us", "us", median(job_line) * 1e6});
  out.push_back({"fleet.proto.done_us", "us", median(done_line) * 1e6});
  out.push_back({"json.report_write_us", "us", median(write) * 1e6});
  out.push_back({"json.report_read_us", "us", median(read) * 1e6});
}

std::vector<Metric> layer_metrics(const RunConfig& config, Runner& runner,
                                  const Pass& plain, const Pass& traced,
                                  const LayerCapture& capture) {
  std::vector<Metric> out;
  const Engine engine = config.workload->engine;
  const bool in_workers = engine == Engine::kFleetProcs;
  const ListRun& cold = traced.threaded.front();

  probe_sim(runner.jobs(), out);

  const auto [forks, fork_ns] =
      histogram("replica.fork_ns", capture, cold, in_workers);
  const auto [resets, reset_ns] =
      histogram("replica.reset_ns", capture, cold, in_workers);
  double hits = 0.0;
  double misses = 0.0;
  double cycles = 0.0;
  double critical = 0.0;
  double segment = 0.0, line = 0.0, sharing = 0.0, sharing_reset = 0.0,
         other = 0.0;
  std::vector<double> job_walls;
  for (const auto& result : cold.results) {
    const core::TopologyReport& report = result.report;
    hits += static_cast<double>(report.chase_memo_hits);
    misses += static_cast<double>(report.chase_memo_misses);
    cycles += static_cast<double>(report.total_cycles);
    critical += static_cast<double>(report.critical_path_cycles);
    for (const auto& stage : report.stage_cycles) {
      if (stage.stage == "L2.segment") {
        segment += stage.wall_seconds;
      } else if (stage.stage == "L2.line") {
        line += stage.wall_seconds;
      } else if (stage.stage == "SL1D.cu_sharing") {
        sharing += stage.wall_seconds;
        sharing_reset += stage.reset_seconds;
      } else {
        other += stage.wall_seconds;
      }
    }
    job_walls.push_back(result.wall_seconds);
  }
  out.push_back({"runtime.forks", "count", forks});
  out.push_back({"runtime.fork_s", "s", fork_ns * 1e-9});
  out.push_back({"runtime.resets", "count", resets});
  out.push_back({"runtime.reset_s", "s", reset_ns * 1e-9});
  out.push_back({"runtime.chases", "count", misses});
  out.push_back(
      {"runtime.memo_hit_ratio", "ratio", ratio(hits, hits + misses)});

  out.push_back({"pipeline.L2.segment.wall_s", "s", segment});
  out.push_back({"pipeline.L2.line.wall_s", "s", line});
  out.push_back({"pipeline.SL1D.cu_sharing.wall_s", "s", sharing});
  out.push_back({"pipeline.SL1D.cu_sharing.reset_s", "s", sharing_reset});
  out.push_back({"pipeline.other.wall_s", "s", other});
  out.push_back({"pipeline.cycles", "count", cycles});
  out.push_back(
      {"pipeline.measured_speedup", "ratio",
       ratio(plain.serial.seconds, median_list_seconds(plain.threaded))});
  out.push_back(
      {"pipeline.modelled_speedup", "ratio", ratio(cycles, critical)});

  const exec::ExecutorStats& before = capture.exec_before;
  const exec::ExecutorStats& after = capture.exec_after;
  const double pool_threads = exec::shared_executor().pool_threads();
  out.push_back({"exec.tasks", "count",
                 static_cast<double>(after.tasks - before.tasks)});
  out.push_back(
      {"exec.worker_busy_fraction", "ratio",
       ratio(static_cast<double>(after.pool_busy_ns - before.pool_busy_ns) *
                 1e-9,
             pool_threads * cold.seconds)});
  out.push_back(
      {"exec.queue_wait_s", "s",
       static_cast<double>(after.queue_wait_ns - before.queue_wait_ns) * 1e-9});

  double wall_sum = 0.0;
  for (double wall : job_walls) wall_sum += wall;
  out.push_back({"fleet.job_wall_p50_s", "s", median(job_walls)});
  out.push_back({"fleet.job_wall_max_s", "s",
                 job_walls.empty() ? 0.0 : *std::max_element(job_walls.begin(),
                                                             job_walls.end())});
  out.push_back({"fleet.worker_utilization", "ratio",
                 ratio(wall_sum, config.threads * cold.seconds)});

  // Persistence layers: the ResultCache serves kDiscover and kFleetThreads
  // reruns, the journal serves kFleetProcs; the other layer reads 0.
  std::vector<double> loads;
  for (const auto& rerun : traced.reruns) loads.push_back(rerun.load_seconds);
  const double load_ms = median(loads) * 1e3;
  double get_us = 0.0;
  if (!in_workers) {
    fleet::ResultCache cache(runner.state_path("threaded"));
    std::vector<double> gets;
    for (const auto& job : runner.jobs()) {
      gets.push_back(
          median_seconds(kProbeRepeats, [&] { (void)cache.get(job); }));
    }
    get_us = median(gets) * 1e6;
  }
  out.push_back({"fleet.cache.load_ms", "ms", in_workers ? 0.0 : load_ms});
  out.push_back({"fleet.cache.save_ms", "ms", cold.save_seconds * 1e3});
  out.push_back({"fleet.cache.get_us", "us", get_us});
  out.push_back({"fleet.journal.replay_ms", "ms", in_workers ? load_ms : 0.0});

  probe_codecs(runner.jobs(), cold, out);

  double retries = 0.0, jobs_failed = 0.0, crashes = 0.0;
  const auto tally = [&](const std::vector<fleet::JobResult>& results) {
    for (const auto& result : results) {
      if (result.attempts > 1) retries += result.attempts - 1;
      if (!result.ok) ++jobs_failed;
      crashes += result.worker_crashes;
    }
  };
  for (const auto& run : traced.threaded) tally(run.results);
  tally(traced.serial.results);
  for (const auto& rerun : traced.reruns) tally(rerun.results);
  out.push_back({"fleet.retries", "count", retries});
  out.push_back({"fleet.jobs_failed", "count", jobs_failed});
  out.push_back({"fleet.worker_crashes", "count", crashes});

  out.push_back({"obs.overhead_frac", "ratio",
                 ratio(median_list_seconds(traced.threaded),
                       median_list_seconds(plain.threaded)) -
                     1.0});
  out.push_back({"error_rate", "ratio",
                 ratio(static_cast<double>(runner.failed),
                       static_cast<double>(runner.attempted))});
  return out;
}

}  // namespace

RunOutcome run_workload(const RunConfig& config, const Oracle& oracle) {
  RunOutcome outcome;
  const Oracle::SelfTest self_test = oracle.self_test();

  Runner runner(config, oracle, set_up(config));
  // The oracle's own verdicts count as judged executions: a tampered report
  // it let through or a clean one it rejected is a failure, so an oracle that
  // stopped flagging anything moves job_success_rate, not only "correct".
  runner.attempted += self_test.tampered + self_test.clean;
  runner.failed +=
      (self_test.tampered - self_test.flagged) + self_test.clean_flagged;
  if (!config.trace) {
    std::vector<double> makespan, serial, rerun, rss, simulated;
    std::vector<std::vector<double>> threaded_walls, serial_walls;
    // kDiscover lists run one job after another, so their wall time is the
    // sum of per-job medians: short samples, whose median skips a slow
    // second of the host that a whole-list sample would average in.
    const bool per_job = config.workload->engine == Engine::kDiscover;
    HostProbe probe;
    std::vector<double> setup_samples;
    runner.between_lists = [&] {
      probe.run();
      for (int i = 0; i < kSetupProcs; ++i) {
        sample_set_up(config, setup_samples);
      }
    };
    const std::uint64_t start = obs::monotonic_ns();
    double elapsed = 0.0;
    double passes = 0.0;
    // Another pass starts while three quarters of an average one still fit
    // in config.seconds, so a run measures about that long; every run makes
    // at least two, so a slow spell of the host cannot leave a fleet run
    // with a single serial sample.
    do {
      const std::uint64_t seed =
          pass_seed(config.seed, static_cast<std::uint32_t>(
                                     outcome.pass_seeds.size()));
      const Pass pass = runner.pass(seed, false);
      for (const auto& run : pass.threaded) {
        makespan.push_back(run.seconds);
        if (per_job) add_job_walls(run, threaded_walls);
      }
      serial.push_back(pass.serial.seconds);
      if (per_job) add_job_walls(pass.serial, serial_walls);
      for (const auto& r : pass.reruns) rerun.push_back(r.seconds);
      rss.insert(rss.end(), pass.threaded_rss_mb.begin(),
                 pass.threaded_rss_mb.end());
      simulated.push_back(simulated_seconds(pass.threaded.front()));
      outcome.pass_seeds.push_back(seed);
      elapsed = static_cast<double>(obs::monotonic_ns() - start) * 1e-9;
      passes += 1.0;
    } while (passes < 2 || elapsed + 0.75 * elapsed / passes <= config.seconds);
    // Time metrics at the reference host speed (see HostProbe); the samples
    // in the result artifact are raw.
    const double host = probe.scale();
    outcome.metrics = {
        {"makespan_s", "s",
         host * (per_job ? sum_of_medians(threaded_walls) : median(makespan))},
        {"serial_makespan_s", "s",
         host * (per_job ? sum_of_medians(serial_walls) : median(serial))},
        // A burst of reruns lasts milliseconds, so it sits wholly in a fast
        // or a slow spell of its core (about 1.8 vs 3 ms on amd-cu); with
        // ten-odd bursts a run the median flips between the two, the mean
        // moves with their mix.
        {"rerun_s", "s", host * mean(rerun)},
        // The fastest sample: set-up is a short fixed computation, and every
        // slower sample carries host contention that differs from process
        // to process (0.42 vs 0.6 ms by the vCPU a process lands on) and
        // from moment to moment. Means and medians of per-process medians
        // moved 26-32% between two sets of ten runs; the fastest sample,
        // rescaled, moved 3-8%.
        {"setup_s", "s",
         host * *std::min_element(setup_samples.begin(), setup_samples.end())},
        // The first T run's peak: later ones start from memory the earlier
        // passes' allocations left behind, by an amount that depends on
        // thread interleaving (nv-l2 medians moved 700 -> 850 MB between
        // sets). fleet-procs discovers in workers: their largest peak.
        {"peak_rss_mb", "MB",
         config.workload->engine == Engine::kFleetProcs
             ? std::max(rss.front(), worker_peak_rss_mb())
             : rss.front()},
        {"simulated_tool_s", "s", median(simulated)},
        {"job_success_rate", "ratio",
         1.0 - ratio(static_cast<double>(runner.failed),
                     static_cast<double>(runner.attempted))},
    };
    outcome.samples = {{"makespan_s", makespan},
                       {"serial_makespan_s", serial},
                       {"rerun_s", rerun},
                       {"setup_s", setup_samples},
                       {"peak_rss_mb", rss},
                       {"simulated_tool_s", simulated},
                       {"host_probe_s", probe.samples()}};
  } else {
    // All three passes use one seed, so they do the same work and must
    // produce the same bytes. The first warms the process up (first-touch
    // page faults, allocator growth); the untraced baseline of the tracing
    // overhead is the last.
    const std::uint64_t seed = pass_seed(config.seed, 0);
    outcome.pass_seeds = {seed, seed, seed};
    runner.pass(seed, false);
    obs::Metrics& metrics = obs::Metrics::instance();
    metrics.reset();
    metrics.enable();
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.start();
    Span span("workload:" + std::string(config.workload->name));
    LayerCapture capture;
    const Pass traced = runner.pass(seed, true, &capture);
    span.close();
    tracer.stop();
    metrics.disable();
    outcome.trace_path = config.out_dir + "/trace-" +
                         std::string(config.workload->name) + ".json";
    std::ofstream(outcome.trace_path) << tracer.chrome_trace_json();
    const Pass plain = runner.pass(seed, false);
    outcome.metrics = layer_metrics(config, runner, plain, traced, capture);
  }
  outcome.attempted = runner.attempted;
  outcome.failed = runner.failed;
  outcome.errors = runner.errors;
  if (!self_test.passed()) {
    outcome.errors.push_back(
        "oracle self-check: " + std::to_string(self_test.flagged) + " of " +
        std::to_string(self_test.tampered) + " tampered reports flagged, " +
        std::to_string(self_test.clean_flagged) + " clean ones rejected");
  }
  return outcome;
}

int set_up_main(const RunConfig& config) {
  // The shared executor starts untimed; set_up() times a fresh one instead,
  // so every sample pays the same thread start and join.
  exec::shared_executor();
  std::cout.precision(17);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t start = obs::monotonic_ns();
    (void)set_up(config);
    std::cout << static_cast<double>(obs::monotonic_ns() - start) * 1e-9
              << "\n";
  }
  return 0;
}

int worker_main(bool metrics) {
  if (metrics) obs::Metrics::instance().enable();
  return fleet::run_worker_loop(std::cin, std::cout);
}

void write_references(const std::string& dir) {
  std::filesystem::create_directories(dir);
  sim::ModelRegistry registry = sim::builtin_registry();
  registry.freeze();
  fleet::SweepPlan plan;
  plan.include_mig = true;
  plan.registry = &registry;
  for (const auto& job : fleet::expand_jobs(plan)) {
    std::ofstream(dir + "/" + job_label(job) + ".json")
        << core::to_json_string(fleet::run_job(job)) << "\n";
  }
}

}  // namespace mt4g::perfbench
