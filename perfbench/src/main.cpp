// mt4g_bench — the mt4g-sim benchmark program (see perfbench/README.md).
//
//   mt4g_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--reference-dir DIR]
//   mt4g_bench --self-test          oracle check on tampered reports
//   mt4g_bench --write-references   regenerate perfbench/reference/
//   mt4g_bench --worker [--metrics] fleet worker (spawned by fleet-procs)
//   mt4g_bench --set-up NAME T     set-up samples (spawned by every run)
//
// A measuring run prints a provenance line, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. Bad arguments
// get a diagnostic on stderr and exit 2; any other failure exits 1.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "workload.hpp"

namespace {

using namespace mt4g;
using namespace mt4g::perfbench;

constexpr char kUsage[] =
    "usage: mt4g_bench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
    "                  [--out-dir DIR] [--reference-dir DIR]\n"
    "       mt4g_bench --self-test [--reference-dir DIR]\n"
    "       mt4g_bench --write-references [--reference-dir DIR]\n"
    "workloads: nv-l2, amd-cu, fleet-threads, fleet-procs\n";

// The benchmark's thread and process budget: T = min(kTargetThreads, nproc).
constexpr std::uint32_t kTargetThreads = 4;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string reference_dir = PERFBENCH_REFERENCE_DIR;
  bool self_test = false;
  bool write_references = false;
};

std::uint64_t parse_unsigned(const std::string& flag, const std::string& text,
                             std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    throw UsageError(flag + " needs a whole number up to " +
                     std::to_string(max) + ", got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(flag, value(), UINT64_MAX);
      args.have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_unsigned(flag, value(), 600));
      if (args.seconds < 1) throw UsageError("--seconds must be at least 1");
    } else if (flag == "--trace") {
      args.trace = parse_unsigned(flag, value(), 1) == 1;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--reference-dir") {
      args.reference_dir = value();
    } else if (flag == "--self-test") {
      args.self_test = true;
    } else if (flag == "--write-references") {
      args.write_references = true;
    } else {
      throw UsageError("unknown argument '" + flag + "'");
    }
  }
  if (args.self_test || args.write_references) return args;
  if (args.workload.empty()) throw UsageError("--workload is required");
  if (!find_workload(args.workload)) {
    throw UsageError("unknown workload '" + args.workload + "'");
  }
  if (!args.have_seed) throw UsageError("--seed is required");
  return args;
}

std::uint32_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

std::string git_sha() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buffer[64] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof buffer, pipe)) sha = trim(buffer);
  pclose(pipe);
  return sha.empty() ? "unknown" : sha;
}

/// Shortest round-trip decimal form: every digit the value carries.
std::string number(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::string result_line(const RunOutcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  return line + "}}";
}

int self_test(const Args& args) {
  const Oracle::SelfTest test = Oracle::load(args.reference_dir).self_test();
  const std::size_t judged = test.tampered + test.clean;
  const std::size_t errors = test.flagged + test.clean_flagged;
  std::printf(
      "{\"self_test\": \"%s\", \"judged\": %zu, \"tampered\": %zu, "
      "\"flagged\": %zu, \"clean_rejected\": %zu, \"error_rate\": %s}\n",
      test.passed() ? "pass" : "FAIL", judged, test.tampered, test.flagged,
      test.clean_flagged,
      number(static_cast<double>(errors) / static_cast<double>(judged))
          .c_str());
  return test.passed() ? 0 : 1;
}

int measure(const Args& args) {
  const Oracle oracle = Oracle::load(args.reference_dir);
  const std::uint32_t nproc = online_cpus();

  RunConfig config;
  config.workload = find_workload(args.workload);
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace;
  config.threads = std::min(kTargetThreads, nproc);
  config.out_dir = std::filesystem::absolute(args.out_dir).string();
  config.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::filesystem::create_directories(config.out_dir);

  json::Value provenance = json::Object{};
  provenance.set("workload", args.workload);
  provenance.set("seed", std::to_string(args.seed));
  provenance.set("trace", args.trace);
  provenance.set("nproc", nproc);
  provenance.set("threads", config.threads);
  // A host with fewer cores than the target budget measures a smaller T;
  // its numbers must not pass for a 4-core result.
  provenance.set("undersized_host", nproc < kTargetThreads);
  provenance.set("cpu_model", cpu_model());
  provenance.set("git_sha", git_sha());
  provenance.set("build_type", PERFBENCH_BUILD_TYPE);
  if (nproc < kTargetThreads) {
    std::fprintf(stderr,
                 "mt4g_bench: WARNING: nproc=%u < %u, T=%u; not a %u-core "
                 "result\n",
                 nproc, kTargetThreads, config.threads, kTargetThreads);
  }

  const RunOutcome outcome = run_workload(config, oracle);
  for (const auto& error : outcome.errors) {
    std::fprintf(stderr, "mt4g_bench: incorrect: %s\n", error.c_str());
  }
  json::Array seeds;
  for (std::uint64_t seed : outcome.pass_seeds) seeds.emplace_back(seed);
  provenance.set("pass_seeds", std::move(seeds));
  json::Value samples = json::Object{};
  for (const auto& [name, values] : outcome.samples) {
    json::Array list;
    for (double value : values) list.emplace_back(value);
    samples.set(name, std::move(list));
  }
  if (!outcome.trace_path.empty()) {
    provenance.set("trace_file", outcome.trace_path);
  }
  const std::string line = result_line(outcome);
  const std::string artifact = config.out_dir + "/result-" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               (args.trace ? "-trace" : "") + ".json";
  std::ofstream(artifact) << "{\"provenance\": " << provenance.dump(-1)
                          << ", \"samples\": " << samples.dump(-1)
                          << ", \"result\": " << line << "}\n";
  std::cout << "provenance " << provenance.dump(-1) << "\n"
            << line << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    const bool metrics = argc >= 3 && std::string(argv[2]) == "--metrics";
    return worker_main(metrics);
  }
  if (argc == 4 && std::string(argv[1]) == "--set-up") {
    RunConfig config;
    config.workload = find_workload(argv[2]);
    config.threads = static_cast<std::uint32_t>(std::atoi(argv[3]));
    if (!config.workload || config.threads < 1) return 2;
    return set_up_main(config);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  try {
    const Args args = parse_args(argc, argv);
    if (args.write_references) {
      write_references(args.reference_dir);
      return 0;
    }
    if (args.self_test) return self_test(args);
    return measure(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "mt4g_bench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mt4g_bench: %s\n", e.what());
    return 1;
  }
}
