// A discovery report whose doubles need all 17 significant digits, and a
// field-by-field equality check — shared by the tests that push reports
// through text (worker pipe, cache file, run journal) and require them back
// bit-exactly.
#pragma once

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "fleet/job.hpp"

namespace mt4g::testing_support {

/// A real TestGPU-NV report with its continuous values replaced by numbers
/// that a 10-significant-digit writer would round.
inline core::TopologyReport precise_report() {
  fleet::DiscoveryJob job;
  job.model = "TestGPU-NV";
  core::TopologyReport report = fleet::run_job(job);
  report.general.clock_mhz = 1410.0 + 4.0 / 7.0;
  report.general.memory_clock_mhz = 1215.0 + 0.1 + 0.2;
  report.simulated_seconds = 56.720680170883114;
  double next = 1.0 / 3.0;
  for (core::MemoryElementReport& row : report.memory) {
    for (core::Attribute* attribute :
         {&row.load_latency, &row.read_bandwidth, &row.write_bandwidth}) {
      if (!attribute->available()) continue;
      attribute->value = attribute->value * (1.0 + next) + next;
      attribute->confidence = 1.0 - next / 10.0;
      next = next * 1.0000001 + 1e-9;
    }
    if (row.latency_stats.count > 0) {  // serialised only when measured
      row.latency_stats.mean += 1.0 / 7.0;
      row.latency_stats.stddev = 0.1 + 0.2;
      row.latency_stats.p95 += 1e-13;
    }
  }
  for (core::ComputeThroughputReport& row : report.compute_throughput) {
    row.achieved_ops_per_s = row.achieved_ops_per_s * (1.0 + 1.0 / 9.0);
  }
  return report;
}

inline void expect_attribute_eq(const core::Attribute& a,
                                const core::Attribute& b,
                                const std::string& where) {
  EXPECT_EQ(a.provenance, b.provenance) << where;
  EXPECT_EQ(a.note, b.note) << where;
  if (!a.available()) return;  // the JSON carries no value for it
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.confidence, b.confidence) << where;
}

/// Every field the report JSON carries, compared with ==, not a tolerance.
inline void expect_reports_equal(const core::TopologyReport& a,
                                 const core::TopologyReport& b) {
  EXPECT_EQ(a.general.gpu_name, b.general.gpu_name);
  EXPECT_EQ(a.general.vendor, b.general.vendor);
  EXPECT_EQ(a.general.model, b.general.model);
  EXPECT_EQ(a.general.microarchitecture, b.general.microarchitecture);
  EXPECT_EQ(a.general.compute_capability, b.general.compute_capability);
  EXPECT_EQ(a.general.clock_mhz, b.general.clock_mhz);
  EXPECT_EQ(a.general.memory_clock_mhz, b.general.memory_clock_mhz);
  EXPECT_EQ(a.general.memory_bus_bits, b.general.memory_bus_bits);

  EXPECT_EQ(a.compute.num_sms, b.compute.num_sms);
  EXPECT_EQ(a.compute.cores_per_sm, b.compute.cores_per_sm);
  EXPECT_EQ(a.compute.num_cores_total, b.compute.num_cores_total);
  EXPECT_EQ(a.compute.warp_size, b.compute.warp_size);
  EXPECT_EQ(a.compute.warps_per_sm, b.compute.warps_per_sm);
  EXPECT_EQ(a.compute.max_threads_per_block, b.compute.max_threads_per_block);
  EXPECT_EQ(a.compute.max_threads_per_sm, b.compute.max_threads_per_sm);
  EXPECT_EQ(a.compute.max_blocks_per_sm, b.compute.max_blocks_per_sm);
  EXPECT_EQ(a.compute.regs_per_block, b.compute.regs_per_block);
  EXPECT_EQ(a.compute.regs_per_sm, b.compute.regs_per_sm);
  EXPECT_EQ(a.compute.cu_physical_ids, b.compute.cu_physical_ids);

  ASSERT_EQ(a.memory.size(), b.memory.size());
  for (std::size_t i = 0; i < a.memory.size(); ++i) {
    const core::MemoryElementReport& x = a.memory[i];
    const core::MemoryElementReport& y = b.memory[i];
    const std::string where = "memory[" + std::to_string(i) + "]";
    EXPECT_EQ(x.element, y.element) << where;
    expect_attribute_eq(x.size, y.size, where + ".size");
    expect_attribute_eq(x.load_latency, y.load_latency, where + ".latency");
    expect_attribute_eq(x.read_bandwidth, y.read_bandwidth, where + ".read");
    expect_attribute_eq(x.write_bandwidth, y.write_bandwidth,
                        where + ".write");
    expect_attribute_eq(x.cache_line, y.cache_line, where + ".line");
    expect_attribute_eq(x.fetch_granularity, y.fetch_granularity,
                        where + ".fetch");
    expect_attribute_eq(x.amount, y.amount, where + ".amount");
    EXPECT_EQ(x.amount_per_gpu, y.amount_per_gpu) << where;
    EXPECT_EQ(x.shared_with, y.shared_with) << where;
    EXPECT_EQ(x.latency_stats.count, y.latency_stats.count) << where;
    EXPECT_EQ(x.latency_stats.mean, y.latency_stats.mean) << where;
    EXPECT_EQ(x.latency_stats.stddev, y.latency_stats.stddev) << where;
    EXPECT_EQ(x.latency_stats.min, y.latency_stats.min) << where;
    EXPECT_EQ(x.latency_stats.max, y.latency_stats.max) << where;
    EXPECT_EQ(x.latency_stats.p50, y.latency_stats.p50) << where;
    EXPECT_EQ(x.latency_stats.p95, y.latency_stats.p95) << where;
    EXPECT_EQ(x.latency_stats.p99, y.latency_stats.p99) << where;
  }

  EXPECT_EQ(a.cu_sharing.available, b.cu_sharing.available);
  EXPECT_EQ(a.cu_sharing.unavailable_reason, b.cu_sharing.unavailable_reason);
  EXPECT_EQ(a.cu_sharing.peers, b.cu_sharing.peers);

  ASSERT_EQ(a.compute_throughput.size(), b.compute_throughput.size());
  for (std::size_t i = 0; i < a.compute_throughput.size(); ++i) {
    EXPECT_EQ(a.compute_throughput[i].dtype, b.compute_throughput[i].dtype);
    EXPECT_EQ(a.compute_throughput[i].achieved_ops_per_s,
              b.compute_throughput[i].achieved_ops_per_s);
    EXPECT_EQ(a.compute_throughput[i].blocks, b.compute_throughput[i].blocks);
    EXPECT_EQ(a.compute_throughput[i].threads_per_block,
              b.compute_throughput[i].threads_per_block);
  }

  EXPECT_EQ(a.benchmarks_executed, b.benchmarks_executed);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.sweep_widenings, b.sweep_widenings);
  EXPECT_EQ(a.sweep_cycles, b.sweep_cycles);
  EXPECT_EQ(a.line_size_cycles, b.line_size_cycles);
  EXPECT_EQ(a.amount_cycles, b.amount_cycles);
  EXPECT_EQ(a.sharing_cycles, b.sharing_cycles);
  EXPECT_EQ(a.bandwidth_cycles, b.bandwidth_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.chase_memo_hits, b.chase_memo_hits);
  EXPECT_EQ(a.chase_memo_misses, b.chase_memo_misses);
  EXPECT_EQ(a.critical_path_cycles, b.critical_path_cycles);
  ASSERT_EQ(a.stage_cycles.size(), b.stage_cycles.size());
  for (std::size_t i = 0; i < a.stage_cycles.size(); ++i) {
    EXPECT_EQ(a.stage_cycles[i].stage, b.stage_cycles[i].stage);
    EXPECT_EQ(a.stage_cycles[i].cycles, b.stage_cycles[i].cycles);
  }
}

}  // namespace mt4g::testing_support
