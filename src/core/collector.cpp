#include "core/collector.hpp"

#include <algorithm>
#include <optional>

#include "core/pipeline/runner.hpp"
#include "exec/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/device.hpp"

namespace mt4g::core {
namespace {

/// The executor a discovery runs on (resolved lazily: a serial discovery
/// never creates the shared pool).
const exec::Executor& executor_of(const DiscoverOptions& options) {
  return options.bench_executor ? *options.bench_executor
                                : exec::shared_executor();
}

}  // namespace

bool DiscoverOptions::wants(sim::Element element) const {
  return only.empty() ||
         std::find(only.begin(), only.end(), element) != only.end();
}

TopologyReport discover(sim::Gpu& gpu, const DiscoverOptions& options) {
  const obs::SpanGuard span("discovery:", gpu.spec().name);
  // Per-discovery metric attribution: snapshot the registry (and the
  // discovery executor's counters) before the run, diff after. Only an opt-in
  // observability run pays for this — and only then does meta.wall appear in
  // the report, keeping default output byte-identical.
  const bool attribute = obs::metrics_enabled();
  std::vector<obs::MetricSample> before;
  exec::ExecutorStats exec_before;
  std::uint64_t start_ns = 0;
  if (attribute) {
    before = obs::Metrics::instance().snapshot();
    exec_before = executor_of(options).stats();
    start_ns = obs::monotonic_ns();
  }
  // Work outside the stage graph traces as graph.setup / graph.teardown;
  // the teardown span outlives `plan`, so freeing the plan counts too.
  std::optional<obs::SpanGuard> teardown;
  std::optional<obs::SpanGuard> setup(std::in_place, "graph.setup");

  TopologyReport report;
  const runtime::DeviceProp prop = runtime::get_device_prop(gpu);

  // --- General information (paper III-A): entirely from the device API. ----
  GeneralInfo& general = report.general;
  general.gpu_name = gpu.spec().name;
  general.vendor = prop.vendor;
  general.model = prop.name;
  general.microarchitecture = prop.microarchitecture;
  general.compute_capability = prop.compute_capability;
  general.clock_mhz = prop.clock_mhz;
  general.memory_clock_mhz = prop.memory_clock_mhz;
  general.memory_bus_bits = prop.memory_bus_bits;

  // --- Compute resources (paper III-B): API + cores-per-SM lookup table. ---
  ComputeInfo& compute = report.compute;
  compute.num_sms = prop.multi_processor_count;
  compute.cores_per_sm =
      runtime::cores_per_sm_lookup(prop.microarchitecture);
  compute.num_cores_total = compute.num_sms * compute.cores_per_sm;
  compute.warp_size = prop.warp_size;
  compute.warps_per_sm =
      prop.warp_size ? prop.max_threads_per_multiprocessor / prop.warp_size : 0;
  compute.max_threads_per_block = prop.max_threads_per_block;
  compute.max_threads_per_sm = prop.max_threads_per_multiprocessor;
  compute.max_blocks_per_sm = prop.max_blocks_per_multiprocessor;
  compute.regs_per_block = prop.regs_per_block;
  compute.regs_per_sm = prop.regs_per_multiprocessor;
  compute.cu_physical_ids = runtime::logical_to_physical_cu(gpu);

  // --- Memory resources + compute capability (paper III-C, IV, VII): the
  // benchmark suite as a declarative stage graph, pruned to the --only
  // restriction and executed with benchmark-level concurrency under
  // options.bench_threads (core/pipeline/).
  pipeline::DiscoveryPlan plan = gpu.spec().vendor == sim::Vendor::kNvidia
                                     ? pipeline::nvidia_stages(gpu, options)
                                     : pipeline::amd_stages(gpu, options);
  setup.reset();
  pipeline::run_graph(gpu, plan, options, report);
  teardown.emplace("graph.teardown");

  if (attribute) {
    obs::Metrics& metrics = obs::Metrics::instance();
    const exec::ExecutorStats exec_after = executor_of(options).stats();
    metrics.add("exec.tasks",
                static_cast<double>(exec_after.tasks - exec_before.tasks));
    metrics.set("exec.worker_busy_fraction", exec_after.worker_busy_fraction);
    metrics.set("exec.queue_depth_max",
                static_cast<double>(exec_after.max_queue_depth));
    report.wall.enabled = true;
    report.wall.wall_seconds =
        static_cast<double>(obs::monotonic_ns() - start_ns) * 1e-9;
    for (const obs::MetricSample& sample :
         obs::Metrics::delta(before, metrics.snapshot())) {
      report.wall.samples.push_back({sample.name,
                                     obs::metric_kind_name(sample.kind),
                                     sample.value, sample.count});
    }
  }
  return report;
}

}  // namespace mt4g::core
