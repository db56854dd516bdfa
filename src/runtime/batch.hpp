// The chase-plan engine: batched execution of any p-chase shape.
//
// A ChaseSpec describes one measurement of any of the four chase shapes the
// tool uses — plain (size/line-size/latency style), amount (A/B/A on two
// cores), sharing (two logical spaces), dual-CU (AMD sL1d) — as pure data.
// run_chase_batch() runs a list of independent specs and returns one
// PChaseResult per spec, in spec order. Each chase executes on a Gpu replica
// (Gpu::fork) that is reset — caches flushed, noise stream re-seeded from
// (gpu seed, spec) via chase_noise_seed() — immediately before the chase, so
// a chase's result is a pure function of the owning Gpu's seed and its own
// spec. That makes the result vector byte-identical for every thread count,
// including the threads == 1 serial reference mode, which is what
// bench/discovery_hotpath and the sweep-engine tests assert.
//
// Purity also makes results cacheable: a ReplicaPool carries a memo keyed by
// the full spec, so a spec measured once costs zero cycles every time it
// recurs — across widenings of one sweep, across the coarse/refinement
// sweeps, and across benchmarks sharing the pool. Memo hits and intra-batch
// duplicates are resolved in spec order before any chase runs, so the
// accounting (which index carries the cycles) is a function of the batch
// contents alone, never of scheduling.
//
// The trade-off is explicit: batched chases do NOT share a noise stream with
// the owning Gpu (each is re-seeded from its spec), so routing a measurement
// through the batch changes its noise realisation relative to the
// serial-on-the-main-Gpu path. The benchmark layer accepts this — detection
// is robust by construction — in exchange for memoization and parallelism.
//
// Warm-up state, by contrast, IS shared — exactly. Warm-up passes consume no
// noise draws (see runtime/kernels.cpp), so the warm state a chase observes
// is a pure function of its warm walk, and a longer walk of the same WarmKey
// is an exact extension of a shorter one. The batch planner groups
// warm-compatible plain chases into chains sorted by walk length and splits
// each chain into chunks of a fixed size (8 members; a full-pass timed run
// closes its chunk early). That one chunk plan is what the compiled engine
// executes — each chunk a unit that warms incrementally, snapshot/restoring
// around each bounded timed pass — and what serial depth is priced over;
// the reference engine runs every member as a cold singleton instead. Walk
// lengths + noise-free warm cycle totals land in the pool's WarmStateEntry
// ledger. Booked cycles follow an engine- and schedule-independent rule:
// every chain member is charged the incremental warm cost over its
// predecessor (the previous member, or the longest prior ledger walk) plus
// its own timed pass, so a chain's warm cost telescopes to its longest walk
// — sharing removes the repeated warm-up from booked cycles AND from
// wall-clock. The rule consumes only deterministic cumulative totals, so
// for a fixed batch sequence the results are byte-identical across thread
// counts and the compiled/reference engines; measurements (latencies, timed
// loads, hit levels) are additionally independent of batch composition and
// history.
//
// That independence is what makes speculation free of side effects. A
// batch is an execute half (run the chases, yielding each one's raw result,
// its cold-equivalent cumulative warm total and, for a chain's longest
// walk, its warm-end snapshot) followed by a booking half (the booking rule,
// ledger insert, serial depth and memo insert). prefetch_chases() runs only
// the execute half, for chases a serial caller may need next, parks the
// outputs in the pool's prefetch table and books nothing. A later
// run_chase_batch on that pool commits a pending spec from the table
// instead of executing it; because the execute half's outputs do not depend
// on history, committing a prefetched chase is indistinguishable from
// executing it, and speculated chases that are never committed leave no
// trace in the booking, the memo or the ledger.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "runtime/kernels.hpp"
#include "sim/gpu.hpp"

namespace mt4g::runtime {

/// A thread-safe free list of owner forks. A fork writes no cache state (the
/// way state is untouched zero pages), but it still rebuilds every cache
/// object and re-materialises the pages its chases touch, and replicas are
/// interchangeable: every chase resets its replica (flush + reseed) before
/// running, and a flushed cache is observationally identical to a fresh
/// one. Recycling keeps the warm pages and skips the rebuild. The discovery
/// stage runner shares one cache per graph run so stage substrates and chase
/// replicas are forked once and recycled, instead of once per stage. Acquire/release order never influences results —
/// that is exactly the reset discipline's guarantee.
class ReplicaCache {
 public:
  /// Pops a cached replica or forks a new one from @p owner. Cached
  /// replicas from a different path epoch (cache rebuild) are discarded.
  sim::Gpu acquire(const sim::Gpu& owner);
  /// Returns a replica to the free list.
  void release(sim::Gpu&& replica);

 private:
  std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::vector<sim::Gpu> free_;
};

/// The four chase shapes of the benchmark suite (paper IV-A/F/G/H).
enum class ChaseKind : std::uint8_t {
  kPlain,    ///< warm-up + timed pass over one array
  kAmount,   ///< core A warms, core B warms a second array, core A timed
  kSharing,  ///< warm space A, warm space B, timed on A
  kDualCu,   ///< CU A warms, CU B warms a second array, CU A timed
};

/// One chase of any shape, as pure data. Equality spans every
/// result-relevant field, which is what makes specs usable as memo keys.
struct ChaseSpec {
  ChaseKind kind = ChaseKind::kPlain;
  PChaseConfig config{};    ///< the timed chase (and its own warm-up)
  PChaseConfig config_b{};  ///< kSharing only: the second warm-up chase
  std::uint32_t partner = 0;  ///< kAmount: core B; kDualCu: CU B
  std::uint64_t base_b = 0;   ///< kAmount/kDualCu: second array base

  bool operator==(const ChaseSpec&) const = default;

  static ChaseSpec plain(const PChaseConfig& config) {
    return ChaseSpec{ChaseKind::kPlain, config, {}, 0, 0};
  }
  static ChaseSpec amount(const PChaseConfig& config, std::uint32_t core_b,
                          std::uint64_t base_b) {
    return ChaseSpec{ChaseKind::kAmount, config, {}, core_b, base_b};
  }
  static ChaseSpec sharing(const PChaseConfig& config_a,
                           const PChaseConfig& config_b) {
    return ChaseSpec{ChaseKind::kSharing, config_a, config_b, 0, 0};
  }
  static ChaseSpec dual_cu(const PChaseConfig& config, std::uint32_t cu_b,
                           std::uint64_t base_b) {
    return ChaseSpec{ChaseKind::kDualCu, config, {}, cu_b, base_b};
  }
};

/// Executes one spec on @p gpu as-is: no replica, no reset, no memo. The
/// batch runner calls this on a reset replica; tests can call it directly.
PChaseResult run_chase(sim::Gpu& gpu, const ChaseSpec& spec);

/// Memo accounting of a ReplicaPool: hits are answered without simulating a
/// single load (the returned result carries total_cycles == 0).
struct ChaseMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< specs that actually ran
};

/// Identity of one warm-up walk. Two plain chases with equal WarmKeys warm
/// the same address sequence through the same cache chain; because a longer
/// warm walk is an exact extension of a shorter one (the first `steps` loads
/// are identical) and warm-up consumes no noise draws, the warm state and
/// noise-free warm cycle total of any walk length can be derived
/// incrementally from a shorter one. Array size, record budget and the
/// timed-pass cap are deliberately absent: those are exactly the fields
/// chases may differ in while sharing a warm walk. Stride stays in the key —
/// a different stride is a different address sequence, and sharing across it
/// would change results.
struct WarmKey {
  sim::Space space = sim::Space::kGlobal;
  bool bypass_l1 = false;
  std::uint64_t base = 0;
  std::uint32_t stride_bytes = 0;
  std::uint32_t sm = 0;
  std::uint32_t core = 0;

  auto tie() const {
    return std::tie(space, bypass_l1, base, stride_bytes, sm, core);
  }
  bool operator==(const WarmKey& other) const { return tie() == other.tie(); }
  bool operator<(const WarmKey& other) const { return tie() < other.tie(); }
};

/// One recorded warm walk of a WarmKey: how many steps were walked, the
/// noise-free cycle total of walking them from cold, and (compiled engine
/// only, budget permitting) the sparse cache image at that point so a later
/// batch can resume the walk instead of re-warming from scratch. The numeric
/// fields are engine-independent and always recorded — the booking rule
/// depends on them; the snapshot only accelerates execution.
struct WarmStateEntry {
  std::uint64_t steps = 0;
  std::uint64_t cum_warm_cycles = 0;
  sim::PathSnapshot state;
  bool has_state = false;
};

/// One speculatively executed chase (see prefetch_chases): exactly what the
/// execute half of run_chase_batch would have produced for it, before any
/// booking.
struct PrefetchedChase {
  ChaseSpec spec;
  PChaseResult result;          ///< raw measurement, cycles not yet booked
  std::uint64_t warm_full = 0;  ///< cold-equivalent cumulative warm cycles
  /// Warm state at the end of its warm walk (compiled-engine chain chases
  /// only); a commit moves it into the ledger when the chase is the longest
  /// walk of its chain.
  sim::PathSnapshot end_state;
  bool has_end_state = false;
};

/// Reusable replicas + chase-result memo for repeated batch calls against
/// the same owning Gpu. Both are rebuilt automatically when the owning Gpu
/// invalidated its compiled paths (cache rebuild via
/// set_l2_fetch_granularity) — the epoch tracks that, and memo results
/// measured against the old cache geometry would be stale. A pool must not
/// be shared across different owning Gpus (Gpu::fork replicas of one owner,
/// which keep the owner's seed, count as the same owning Gpu).
struct ReplicaPool {
  std::uint64_t epoch = 0;
  std::vector<sim::Gpu> replicas;
  /// spec-seed hash -> (spec, result) entries; collisions resolved by the
  /// full spec comparison.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<ChaseSpec, PChaseResult>>>
      memo;
  ChaseMemoStats memo_stats;
  /// Read-only parent memos, probed in order after this pool's own memo
  /// misses. The discovery stage graph points a stage's pool at the pools of
  /// its completed (transitive) dependency stages: those finished before
  /// this pool's stage started under every schedule, so which probes hit is
  /// a function of the graph alone — never of stage scheduling — and the
  /// upstream pools are immutable while this pool is live. Hits against an
  /// upstream memo are counted in this pool's memo_stats.
  std::vector<const ReplicaPool*> upstream;
  /// Optional shared fork cache: new replicas are acquired here instead of
  /// forked, and the stage runner returns them after the pool's stage
  /// completes. nullptr = fork directly (the pre-graph behaviour).
  ReplicaCache* replica_cache = nullptr;
  /// Warm-state ledger: per warm key, one numeric record per distinct walk
  /// length ever completed, sorted ascending by steps (snapshots attach to
  /// whichever records fit the byte budget). Booking prices a chase at the
  /// increment over the nearest shorter recorded walk, so even bisection
  /// patterns that revisit mid-range sizes book small deltas. Read at
  /// batch-plan time, updated once per batch at the join in deterministic
  /// chain order, and never consulted across pools (stage-local, so
  /// bench_threads scheduling cannot influence booking). Cleared with the
  /// memo on an epoch change.
  std::map<WarmKey, std::vector<WarmStateEntry>> warm_ledger;
  /// Resident bytes of ledger snapshots; inserts that would exceed the
  /// budget keep their (mandatory) numeric fields but drop the snapshot, so
  /// the budget bounds memory, never results. The built-in models stay
  /// inside it (the largest stage pool, on B100-preview, peaks near
  /// 141 MB); it is the bound for user specs with larger L2s.
  std::uint64_t warm_state_bytes = 0;
  std::uint64_t warm_state_budget = 256ULL << 20;
  /// Host nanoseconds spent resetting replicas (cache flush + noise reseed)
  /// across every batch run against this pool. Always accumulated (unlike
  /// the metrics-gated replica.reset_ns observe) so the stage runner can
  /// attribute reset time per stage in the report.
  std::uint64_t reset_ns = 0;
  /// Booked simulated cycles of every chase executed through this pool
  /// (memo hits excluded — they book zero), and the serially-dependent
  /// portion of them: per batch, the most expensive chunk of the batch's
  /// chunk plan (the partition the compiled engine executes) or non-chain
  /// singleton, summed over batches (which run sequentially). serial_cycles
  /// is the Amdahl floor of the pool's chase work under unbounded sweep
  /// threads; the stage runner prices a stage's critical-path contribution
  /// with it. Both are pure functions of the batch sequence — never of
  /// threads, engine, or scheduling.
  std::uint64_t chase_cycles = 0;
  std::uint64_t serial_cycles = 0;
  /// Speculative chases of the latest prefetch_chases call, keyed like the
  /// memo; a batch commits a pending spec from here instead of executing
  /// it. Each prefetch replaces the table, so off-path results live until
  /// the next round. Cleared with the memo on an epoch change.
  std::unordered_map<std::uint64_t, std::vector<PrefetchedChase>> prefetched;
};

struct ChaseBatchOptions {
  /// Total parallelism including the calling thread; 1 = serial reference
  /// (strict spec order, no executor involved).
  std::uint32_t threads = 1;
  /// Executor to fan out on when threads > 1; nullptr = shared_executor().
  exec::Executor* executor = nullptr;
  /// Optional replica + memo cache reused across calls (see ReplicaPool).
  ReplicaPool* pool = nullptr;
};

/// Deterministic noise-stream seed of one batched chase: a stable mix of the
/// owning Gpu's construction seed and every result-relevant spec field.
/// Two specs differing in any field get statistically independent streams;
/// the same (seed, spec) always maps to the same stream. Exception:
/// PChaseConfig::max_timed_steps is deliberately not folded — capping the
/// timed pass does not change which loads the recorded prefix executes, so
/// capped and uncapped variants of one config agree on their prefix.
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed,
                               const PChaseConfig& config);
std::uint64_t chase_noise_seed(std::uint64_t gpu_seed, const ChaseSpec& spec);

/// Runs every spec (see file comment for the execution model) and returns
/// results in spec order. The engine (compiled/reference) active on the
/// calling thread is propagated to the worker threads. Results answered from
/// the memo (or duplicated within the batch) carry from_cache == true and
/// total_cycles == 0, so cycle tallies never double-book simulated work.
std::vector<PChaseResult> run_chase_batch(
    sim::Gpu& gpu, std::span<const ChaseSpec> specs,
    const ChaseBatchOptions& options = {});

/// Executes @p specs ahead of time, off the books (see file comment), and
/// replaces options.pool's prefetch table with their outputs: each spec
/// runs as its own unit on the pool's replicas, in parallel up to
/// options.threads, resuming from the pool's current warm ledger. Memo hits
/// and duplicates are skipped. Writes nothing else a later batch reads —
/// not the memo, memo_stats, the ledger, chase_cycles or serial_cycles;
/// only the pool's replicas and reset_ns (host resources) grow. Without
/// options.pool there is nothing to commit from, so nothing runs.
void prefetch_chases(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     const ChaseBatchOptions& options);

/// Whether @p spec waits in @p pool's prefetch table (see prefetch_chases).
bool is_prefetched(const sim::Gpu& gpu, const ReplicaPool& pool,
                   const ChaseSpec& spec);

/// Plain-chase convenience wrapper: wraps each config in ChaseSpec::plain.
std::vector<PChaseResult> run_pchase_batch(
    sim::Gpu& gpu, std::span<const PChaseConfig> configs,
    const ChaseBatchOptions& options = {});

}  // namespace mt4g::runtime
