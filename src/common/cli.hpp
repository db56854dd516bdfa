// Command-line parser for the mt4g example binary.
//
// Mirrors the flag set of the original tool's artifact description:
//   -g (graphs/series dump), -o (raw timings), -p (markdown report),
//   -j (JSON file), -q (quiet, JSON to stdout only), plus simulator-specific
//   options: --gpu <name>, --seed <n>, --only <element>, --cache-config <mode>.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mt4g::cli {

struct Options {
  std::string gpu_name = "H100-80";   ///< registry key of the simulated GPU
  bool gpu_name_set = false;          ///< --gpu given explicitly
  std::uint64_t seed = 42;            ///< simulator noise seed
  bool emit_graphs = false;           ///< -g: dump reduction series (Fig. 2 data)
  bool emit_raw = false;              ///< -o: legacy CSV attribute table
  bool emit_markdown = false;         ///< -p: write the .md report
  bool emit_json_file = false;        ///< -j: write <GPU>.json
  bool quiet = false;                 ///< -q: JSON to stdout only
  bool list_gpus = false;             ///< --list: print registry and exit
  bool measure_flops = false;         ///< --flops: per-dtype compute benchmarks
  /// --only l1,l2,...: restrict scope to an element set (repeatable flag,
  /// comma-separated values). Empty = full discovery.
  std::vector<std::string> only;
  std::uint32_t sweep_threads = 1;    ///< --sweep-threads: parallel sweeps
  std::uint32_t bench_threads = 1;    ///< --bench-threads: concurrent stages
  std::string cache_config = "PreferL1";  ///< L1/Shared split policy
  std::string output_dir = ".";       ///< where -j/-p/-g/-o files land
  /// --trace FILE: write a Chrome trace-event JSON of the run (Perfetto /
  /// chrome://tracing). Tracing alone never changes report bytes.
  std::string trace_path;
  /// --metrics FILE: enable the obs metrics registry, dump it as Prometheus
  /// text, and embed the per-discovery aggregation as meta.wall in the JSON.
  std::string metrics_path;
  /// --model-dir DIR: overlay every *.json GPU spec of DIR onto the built-in
  /// registry before the run (same semantics as $MT4G_MODEL_DIR).
  std::string model_dir;
  /// --model-spec FILE: load one GPU spec file (repeatable). Without an
  /// explicit --gpu, the (last) file's model becomes the analysed GPU.
  std::vector<std::string> model_specs;
};

struct ParseResult {
  Options options;
  std::vector<std::string> errors;  ///< empty on success
  bool show_help = false;
};

/// Parses argv. Never exits; callers decide what to do with errors/help.
ParseResult parse(int argc, const char* const* argv);

/// Usage text for --help.
std::string usage();

}  // namespace mt4g::cli
