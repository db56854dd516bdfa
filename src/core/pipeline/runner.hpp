// The stage-graph executor: runs ready stages concurrently and assembles
// the TopologyReport deterministically.
//
// Scheduling model: with bench_threads <= 1 the stages run serially in
// deterministic topological order (smallest declaration index first). With
// bench_threads > 1 the stages run on the discovery's executor
// (DiscoverOptions::bench_executor, else the process-wide one; src/exec/)
// by launch-on-ready: the root stages run as one parallel_for capped at
// bench_threads, and the thread that finishes a stage's last dependency
// launches the stages that became ready as a nested parallel_for, again
// capped at bench_threads. No thread waits for a stage to become ready, so
// a thread with no stage to run goes back to the executor, and the
// executor's helping join sends it into the running stages' chase batches
// (sweep_threads). A stage's chase batches, the discovery's stages and a
// fleet sweep's whole jobs therefore share one pool without parking any of
// its threads.
//
// Determinism: the report is byte-identical for every bench_threads x
// sweep_threads combination (see stage.hpp for the three rules). Failure
// handling follows the executor's convention: every runnable stage still
// runs, stages downstream of a failed stage are skipped, and the exception
// of the lowest-declaration-index failing stage is rethrown afterwards — so
// the error a caller observes is independent of scheduling.
#pragma once

#include "core/collector.hpp"
#include "core/pipeline/context.hpp"
#include "core/pipeline/stage.hpp"
#include "core/report.hpp"

namespace mt4g::core::pipeline {

/// A buildable discovery: the validated stage table plus the pre-created
/// blackboard (rows seeded with their API-provenance attributes).
struct DiscoveryPlan {
  StageGraph graph;
  GraphState state;
};

/// The vendor stage tables (stages_nvidia.cpp / stages_amd.cpp): every
/// benchmark of the suite as data, validated before returning. @p gpu is
/// only read (spec + device APIs) to decide which stages exist.
DiscoveryPlan nvidia_stages(sim::Gpu& gpu, const DiscoverOptions& options);
DiscoveryPlan amd_stages(sim::Gpu& gpu, const DiscoverOptions& options);

/// Prunes plan.graph to options.only (+ transitive dependencies), executes
/// the graph against @p gpu, and merges rows, bookings, per-stage cycles,
/// critical path and memo statistics into @p report in declaration order.
void run_graph(sim::Gpu& gpu, DiscoveryPlan& plan,
               const DiscoverOptions& options, TopologyReport& report);

}  // namespace mt4g::core::pipeline
