#include "core/output/report_io.hpp"

#include <cmath>
#include <stdexcept>

#include "common/json_parse.hpp"
#include "common/strings.hpp"

namespace mt4g::core {
namespace {

const json::Value& member(const json::Value& object, const std::string& key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) {
    throw std::runtime_error("report json: missing member '" + key + "'");
  }
  return *value;
}

double number_or(const json::Value& object, const std::string& key,
                 double fallback) {
  const json::Value* value = object.find(key);
  if (value == nullptr || value->is_null()) return fallback;
  return value->as_double();
}

std::string string_or(const json::Value& object, const std::string& key,
                      const std::string& fallback) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_string()) return fallback;
  return value->as_string();
}

Provenance parse_provenance(const std::string& symbol) {
  if (symbol == "!") return Provenance::kBenchmark;
  if (symbol == "!(API)") return Provenance::kApi;
  if (symbol == "#") return Provenance::kUnavailable;
  return Provenance::kNotApplicable;
}

Attribute parse_attribute(const json::Value& object) {
  Attribute attribute;
  attribute.provenance =
      parse_provenance(string_or(object, "provenance", "n/a"));
  if (attribute.available()) {
    attribute.value = number_or(object, "value", 0.0);
    attribute.confidence = number_or(object, "confidence", 1.0);
  }
  attribute.note = string_or(object, "note", "");
  return attribute;
}

stats::Summary parse_summary(const json::Value& object) {
  stats::Summary summary;
  summary.count = static_cast<std::size_t>(number_or(object, "count", 0));
  summary.mean = number_or(object, "mean", 0);
  summary.stddev = number_or(object, "stddev", 0);
  summary.min = number_or(object, "min", 0);
  summary.max = number_or(object, "max", 0);
  summary.p50 = number_or(object, "p50", 0);
  summary.p95 = number_or(object, "p95", 0);
  summary.p99 = number_or(object, "p99", 0);
  return summary;
}

}  // namespace

TopologyReport from_json_string(const std::string& text) {
  return from_json(json::parse_or_throw(text));
}

TopologyReport from_json(const json::Value& root) {
  if (!root.is_object()) {
    throw std::runtime_error("report json: document is not an object");
  }
  TopologyReport report;

  const json::Value& general = member(root, "general");
  report.general.gpu_name = string_or(general, "gpu", "");
  report.general.vendor = string_or(general, "vendor", "");
  report.general.model = string_or(general, "model", "");
  report.general.microarchitecture =
      string_or(general, "microarchitecture", "");
  report.general.compute_capability =
      string_or(general, "compute_capability", "");
  report.general.clock_mhz = number_or(general, "clock_mhz", 0);
  report.general.memory_clock_mhz = number_or(general, "memory_clock_mhz", 0);
  report.general.memory_bus_bits = static_cast<std::uint32_t>(
      number_or(general, "memory_bus_bits", 0));

  const json::Value& compute = member(root, "compute");
  auto u32 = [&compute](const char* key) {
    return static_cast<std::uint32_t>(number_or(compute, key, 0));
  };
  report.compute.num_sms = u32("num_sms");
  report.compute.cores_per_sm = u32("cores_per_sm");
  report.compute.num_cores_total = u32("num_cores_total");
  report.compute.warp_size = u32("warp_size");
  report.compute.warps_per_sm = u32("warps_per_sm");
  report.compute.max_threads_per_block = u32("max_threads_per_block");
  report.compute.max_threads_per_sm = u32("max_threads_per_sm");
  report.compute.max_blocks_per_sm = u32("max_blocks_per_sm");
  report.compute.regs_per_block = u32("regs_per_block");
  report.compute.regs_per_sm = u32("regs_per_sm");
  if (const json::Value* ids = compute.find("cu_physical_ids")) {
    for (const auto& id : ids->as_array()) {
      report.compute.cu_physical_ids.push_back(
          static_cast<std::uint32_t>(id.as_int()));
    }
  }

  for (const json::Value& row : member(root, "memory").as_array()) {
    MemoryElementReport element;
    element.element = sim::parse_element(string_or(row, "element", "L1"));
    element.size = parse_attribute(member(row, "size_bytes"));
    element.load_latency = parse_attribute(member(row, "load_latency_cycles"));
    element.read_bandwidth =
        parse_attribute(member(row, "read_bandwidth_bytes_per_s"));
    element.write_bandwidth =
        parse_attribute(member(row, "write_bandwidth_bytes_per_s"));
    element.cache_line = parse_attribute(member(row, "cache_line_bytes"));
    element.fetch_granularity =
        parse_attribute(member(row, "fetch_granularity_bytes"));
    element.amount = parse_attribute(member(row, "amount"));
    element.amount_per_gpu = string_or(row, "amount_scope", "") == "per_gpu";
    element.shared_with = string_or(row, "physically_shared_with", "");
    if (const json::Value* summary = row.find("latency_statistics")) {
      element.latency_stats = parse_summary(*summary);
    }
    report.memory.push_back(std::move(element));
  }

  if (const json::Value* sharing = root.find("sl1d_cu_sharing")) {
    report.cu_sharing.available =
        sharing->find("available") != nullptr &&
        sharing->find("available")->as_bool();
    report.cu_sharing.unavailable_reason = string_or(*sharing, "reason", "");
    if (const json::Value* groups = sharing->find("groups")) {
      for (const auto& entry : groups->as_array()) {
        const auto cu = static_cast<std::uint32_t>(
            member(entry, "cu").as_int());
        std::vector<std::uint32_t> peers;
        for (const auto& peer :
             member(entry, "shares_sl1d_with").as_array()) {
          peers.push_back(static_cast<std::uint32_t>(peer.as_int()));
        }
        report.cu_sharing.peers[cu] = std::move(peers);
      }
    }
  }

  if (const json::Value* throughput = root.find("compute_throughput")) {
    for (const auto& entry : throughput->as_array()) {
      ComputeThroughputReport row;
      row.dtype = string_or(entry, "dtype", "");
      row.achieved_ops_per_s = number_or(entry, "achieved_ops_per_s", 0);
      row.blocks = static_cast<std::uint32_t>(number_or(entry, "blocks", 0));
      row.threads_per_block =
          static_cast<std::uint32_t>(number_or(entry, "threads_per_block", 0));
      report.compute_throughput.push_back(std::move(row));
    }
  }

  const json::Value& meta = member(root, "meta");
  report.benchmarks_executed = static_cast<std::uint32_t>(
      number_or(meta, "benchmarks_executed", 0));
  report.simulated_seconds = number_or(meta, "simulated_seconds", 0);
  report.sweep_widenings =
      static_cast<std::uint32_t>(number_or(meta, "sweep_widenings", 0));
  report.sweep_cycles =
      static_cast<std::uint64_t>(number_or(meta, "sweep_cycles", 0));
  report.line_size_cycles =
      static_cast<std::uint64_t>(number_or(meta, "line_size_cycles", 0));
  report.amount_cycles =
      static_cast<std::uint64_t>(number_or(meta, "amount_cycles", 0));
  report.sharing_cycles =
      static_cast<std::uint64_t>(number_or(meta, "sharing_cycles", 0));
  report.bandwidth_cycles =
      static_cast<std::uint64_t>(number_or(meta, "bandwidth_cycles", 0));
  report.compute_cycles =
      static_cast<std::uint64_t>(number_or(meta, "compute_cycles", 0));
  report.total_cycles =
      static_cast<std::uint64_t>(number_or(meta, "total_cycles", 0));
  report.chase_memo_hits =
      static_cast<std::uint64_t>(number_or(meta, "chase_memo_hits", 0));
  report.chase_memo_misses =
      static_cast<std::uint64_t>(number_or(meta, "chase_memo_misses", 0));
  report.critical_path_cycles =
      static_cast<std::uint64_t>(number_or(meta, "critical_path_cycles", 0));
  if (const json::Value* stages = meta.find("stage_cycles")) {
    for (const auto& entry : stages->as_array()) {
      StageCycleReport stage;
      stage.stage = string_or(entry, "stage", "");
      stage.cycles =
          static_cast<std::uint64_t>(number_or(entry, "cycles", 0));
      stage.wall_seconds = number_or(entry, "wall_seconds", 0);
      stage.reset_seconds = number_or(entry, "reset_seconds", 0);
      report.stage_cycles.push_back(std::move(stage));
    }
  }
  if (const json::Value* wall = meta.find("wall")) {
    report.wall.enabled = true;
    report.wall.wall_seconds = number_or(*wall, "wall_seconds", 0);
    if (const json::Value* samples = wall->find("samples")) {
      for (const auto& entry : samples->as_array()) {
        WallMetricSample sample;
        sample.name = string_or(entry, "name", "");
        sample.kind = string_or(entry, "kind", "counter");
        sample.value = number_or(entry, "value", 0);
        sample.count = static_cast<std::uint64_t>(number_or(entry, "count", 0));
        report.wall.samples.push_back(std::move(sample));
      }
    }
  }
  return report;
}

namespace {

void diff_attribute(std::vector<ReportDifference>& out,
                    const std::string& element, const std::string& name,
                    const Attribute& lhs, const Attribute& rhs, bool discrete,
                    double tolerance) {
  if (lhs.provenance != rhs.provenance) {
    out.push_back({element, name + ".provenance",
                   provenance_symbol(lhs.provenance),
                   provenance_symbol(rhs.provenance)});
    return;
  }
  if (!lhs.available()) return;
  bool equal = false;
  if (discrete) {
    equal = static_cast<std::int64_t>(lhs.value) ==
            static_cast<std::int64_t>(rhs.value);
  } else {
    const double scale = std::max(std::fabs(lhs.value), std::fabs(rhs.value));
    equal = scale == 0.0 ||
            std::fabs(lhs.value - rhs.value) <= tolerance * scale;
  }
  if (!equal) {
    out.push_back({element, name, format_double(lhs.value, 2),
                   format_double(rhs.value, 2)});
  }
}

}  // namespace

std::vector<ReportDifference> diff_reports(const TopologyReport& lhs,
                                           const TopologyReport& rhs,
                                           const DiffOptions& options) {
  std::vector<ReportDifference> out;
  if (lhs.general.gpu_name != rhs.general.gpu_name) {
    out.push_back({"general", "gpu", lhs.general.gpu_name,
                   rhs.general.gpu_name});
  }
  if (lhs.general.vendor != rhs.general.vendor) {
    out.push_back({"general", "vendor", lhs.general.vendor,
                   rhs.general.vendor});
  }
  if (lhs.compute.num_sms != rhs.compute.num_sms) {
    out.push_back({"compute", "num_sms", std::to_string(lhs.compute.num_sms),
                   std::to_string(rhs.compute.num_sms)});
  }
  if (lhs.compute.warp_size != rhs.compute.warp_size) {
    out.push_back({"compute", "warp_size",
                   std::to_string(lhs.compute.warp_size),
                   std::to_string(rhs.compute.warp_size)});
  }

  for (const auto& row : lhs.memory) {
    const std::string name = sim::element_name(row.element);
    const MemoryElementReport* other = rhs.find(row.element);
    if (other == nullptr) {
      out.push_back({name, "presence", "present", "missing"});
      continue;
    }
    const double tol = options.continuous_tolerance;
    diff_attribute(out, name, "size", row.size, other->size,
                   /*discrete=*/true, tol);
    diff_attribute(out, name, "load_latency", row.load_latency,
                   other->load_latency, false, tol);
    diff_attribute(out, name, "read_bandwidth", row.read_bandwidth,
                   other->read_bandwidth, false, tol);
    diff_attribute(out, name, "write_bandwidth", row.write_bandwidth,
                   other->write_bandwidth, false, tol);
    diff_attribute(out, name, "cache_line", row.cache_line, other->cache_line,
                   true, tol);
    diff_attribute(out, name, "fetch_granularity", row.fetch_granularity,
                   other->fetch_granularity, true, tol);
    diff_attribute(out, name, "amount", row.amount, other->amount, true, tol);
    if (row.shared_with != other->shared_with) {
      out.push_back({name, "shared_with", row.shared_with,
                     other->shared_with});
    }
  }
  for (const auto& row : rhs.memory) {
    if (lhs.find(row.element) == nullptr) {
      out.push_back({sim::element_name(row.element), "presence", "missing",
                     "present"});
    }
  }
  return out;
}

}  // namespace mt4g::core
