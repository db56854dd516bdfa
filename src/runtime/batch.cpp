#include "runtime/batch.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mt4g::runtime {
namespace {

/// The one fork site of the chase engine. The fork seed is irrelevant:
/// every user resets the replica before use.
sim::Gpu fork_replica(const sim::Gpu& owner) {
  const obs::SpanGuard span("replica.fork");
  const bool timed = obs::metrics_enabled();
  const std::uint64_t start_ns = timed ? obs::monotonic_ns() : 0;
  sim::Gpu replica = owner.fork(owner.seed());
  if (timed) {
    obs::Metrics::instance().observe(
        "replica.fork_ns",
        static_cast<double>(obs::monotonic_ns() - start_ns));
  }
  return replica;
}

}  // namespace

sim::Gpu ReplicaCache::acquire(const sim::Gpu& owner) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch_ != owner.path_epoch()) {
      free_.clear();  // cached forks hold the old cache geometry
      epoch_ = owner.path_epoch();
    }
    if (!free_.empty()) {
      sim::Gpu replica = std::move(free_.back());
      free_.pop_back();
      return replica;
    }
  }
  return fork_replica(owner);
}

void ReplicaCache::release(sim::Gpu&& replica) {
  // A fork starts at path epoch 0; a non-zero epoch means someone rebuilt
  // the replica's caches (set_l2_fetch_granularity). Flush/reseed/rewind
  // cannot restore geometry, so such a replica must not be recycled.
  if (replica.path_epoch() != 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(replica));
}

namespace {

/// Splitmix-based field folder shared by the seed and memo-hash paths. The
/// constant decorrelates the chase streams from the owning Gpu's own stream
/// (which Xoshiro256 seeds from the same value).
struct SeedFolder {
  std::uint64_t state;

  explicit SeedFolder(std::uint64_t gpu_seed)
      : state(gpu_seed ^ 0xA3C59AC2B1F9D0E5ULL) {}

  void fold(std::uint64_t value) {
    // Keep the mixed output, not just the advanced counter: the avalanche is
    // what makes near-identical specs (e.g. swapped sm/core indices or a
    // shared flipped bit across two fields) land on unrelated streams.
    state ^= value;
    state = splitmix64(state);
  }

  void fold_config(const PChaseConfig& config) {
    fold(static_cast<std::uint64_t>(config.space));
    fold(config.flags.bypass_l1 ? 1 : 0);
    fold(config.base);
    fold(config.array_bytes);
    fold(config.stride_bytes);
    fold(config.record_count);
    fold(config.warmup ? 1 : 0);
    fold(config.where.sm);
    fold(config.where.core);
    fold(config.resample);
    // max_timed_steps deliberately excluded — see the header contract.
  }

  std::uint64_t finish() { return splitmix64(state); }
};

}  // namespace

std::uint64_t chase_noise_seed(std::uint64_t gpu_seed,
                               const PChaseConfig& config) {
  SeedFolder folder(gpu_seed);
  folder.fold_config(config);
  return folder.finish();
}

std::uint64_t chase_noise_seed(std::uint64_t gpu_seed, const ChaseSpec& spec) {
  // Plain specs fold exactly like a bare config, so the plain wrapper and
  // the spec path agree on every stream.
  if (spec.kind == ChaseKind::kPlain) {
    return chase_noise_seed(gpu_seed, spec.config);
  }
  SeedFolder folder(gpu_seed);
  folder.fold(static_cast<std::uint64_t>(spec.kind));
  folder.fold_config(spec.config);
  if (spec.kind == ChaseKind::kSharing) {
    folder.fold_config(spec.config_b);
  } else {
    folder.fold(spec.partner);
    folder.fold(spec.base_b);
  }
  return folder.finish();
}

namespace {

/// Probes one pool's own memo map (no upstream recursion).
const PChaseResult* find_in_memo(const ReplicaPool& pool, std::uint64_t hash,
                                 const ChaseSpec& spec) {
  const auto bucket = pool.memo.find(hash);
  if (bucket == pool.memo.end()) return nullptr;
  const auto hit = std::find_if(
      bucket->second.begin(), bucket->second.end(),
      [&](const auto& entry) { return entry.first == spec; });
  return hit == bucket->second.end() ? nullptr : &hit->second;
}

/// Probes the pool's memo, then its upstream (ancestor) memos in order.
const PChaseResult* probe_memo(const ReplicaPool& pool, std::uint64_t hash,
                               const ChaseSpec& spec) {
  if (const PChaseResult* own = find_in_memo(pool, hash, spec)) return own;
  for (const ReplicaPool* parent : pool.upstream) {
    if (const PChaseResult* hit = find_in_memo(*parent, hash, spec)) {
      return hit;
    }
  }
  return nullptr;
}

/// Timed-pass length of a plain config (the max_timed_steps cap applied).
std::uint64_t timed_steps_of(const PChaseConfig& config) {
  const std::uint64_t steps = config.array_bytes / config.stride_bytes;
  return config.max_timed_steps != 0 ? std::min(steps, config.max_timed_steps)
                                     : steps;
}

/// Ceiling on the timed-pass length of a chase that may run mid-chunk: its
/// cache footprint must be snapshot/restored around the timed pass, and the
/// prefix snapshot cost is linear in this bound. Record-only chases cap
/// their timed pass at record_count (typically 512), far below this; a chase
/// above the ceiling (a full-pass bisection probe) still joins a chunk but
/// only as its final member, where no restore-after is needed.
constexpr std::uint64_t kPrefixShareCap = 4096;

/// Chain members per chunk: the unit of sub-sweep parallelism (each chunk
/// re-warms independently and fans out across sweep threads) and the
/// partition a batch's serial depth is priced over.
constexpr std::size_t kChunkPoints = 8;

/// Records a chain's longest warm walk in the pool ledger. Every distinct
/// walk length gets a numeric record, kept sorted by steps: the booking
/// rule prices a chase at the increment over the nearest shorter recorded
/// walk, so bisection-style access patterns (which revisit mid-range sizes
/// in non-monotonic order) book small deltas instead of near-full warm
/// costs. The numeric fields are recorded unconditionally (booking depends
/// on them and must be engine-independent); the snapshot is dropped when it
/// would exceed the byte budget, which only costs execution speed, never
/// correctness. The record count needs no cap of its own: a batch adds at
/// most one record per chain, every chain holds at least one memo miss, and
/// every miss stays in the same pool's memo, so the ledger never outgrows
/// the memo.
void insert_ledger_entry(ReplicaPool& pool, const WarmKey& key,
                         WarmStateEntry&& entry) {
  auto& entries = pool.warm_ledger[key];
  const auto at = std::lower_bound(
      entries.begin(), entries.end(), entry.steps,
      [](const WarmStateEntry& e, std::uint64_t steps) {
        return e.steps < steps;
      });
  WarmStateEntry* slot = nullptr;
  if (at != entries.end() && at->steps == entry.steps) {
    slot = &*at;
  } else {
    slot = &*entries.emplace(at);
  }
  const std::uint64_t old_bytes = slot->has_state ? slot->state.byte_size() : 0;
  std::uint64_t new_bytes = entry.has_state ? entry.state.byte_size() : 0;
  if (pool.warm_state_bytes - old_bytes + new_bytes > pool.warm_state_budget) {
    entry.state = sim::PathSnapshot{};
    entry.has_state = false;
    new_bytes = 0;
  }
  pool.warm_state_bytes = pool.warm_state_bytes - old_bytes + new_bytes;
  *slot = std::move(entry);
}

/// Warm walk of a chase that may share warm-up, or nullopt for one that
/// always runs cold: non-plain shapes, warm-up-free configs, and resamples,
/// which exist to be genuinely independent re-measurements.
std::optional<WarmKey> warm_key_of(const ChaseSpec& spec) {
  const PChaseConfig& config = spec.config;
  if (spec.kind != ChaseKind::kPlain || !config.warmup ||
      config.resample != 0) {
    return std::nullopt;
  }
  return WarmKey{config.space,        config.flags.bypass_l1,
                 config.base,         config.stride_bytes,
                 config.where.sm,     config.where.core};
}

std::uint64_t walk_steps_of(const PChaseConfig& config) {
  return config.array_bytes / config.stride_bytes;
}

/// The longest ledger walk with a snapshot not exceeding @p steps: where a
/// warm-sharing unit resumes instead of warming from cold.
const WarmStateEntry* resume_point(const ReplicaPool& pool, const WarmKey& key,
                                   std::uint64_t steps) {
  const auto ledger = pool.warm_ledger.find(key);
  if (ledger == pool.warm_ledger.end()) return nullptr;
  const WarmStateEntry* best = nullptr;
  for (const WarmStateEntry& e : ledger->second) {
    if (e.has_state && e.steps <= steps &&
        (best == nullptr || e.steps > best->steps)) {
      best = &e;
    }
  }
  return best;
}

/// What one worker slot runs back-to-back on one replica. A warm unit
/// (compiled engine, warm-compatible plain chases of one WarmKey in walk
/// order) warms incrementally from its resume point and snapshot/restores
/// around each bounded timed pass; anything else is one cold chase.
struct Unit {
  /// Its pending indices: order[first, first + count) of the batch's one
  /// flat index array, in walk order.
  std::size_t first = 0;
  std::size_t count = 1;
  bool warm = false;
  const WarmStateEntry* restore = nullptr;  ///< ledger resume point
  /// Receives the warm state right before the last member's timed pass.
  WarmStateEntry* save = nullptr;
};

/// The execute half of a batch: runs @p units (ranges of @p order) on the
/// pool's replicas, one replica per participant slot, and fills the raw
/// result and the cold-equivalent cumulative warm total (warm_full) of every
/// pending index the units hold. Besides those outputs and the units' save
/// targets it touches only the pool's replicas and reset_ns. Ledger entries
/// are read, never written, so the units' restore pointers stay valid
/// throughout.
void execute_units(sim::Gpu& gpu, ReplicaPool& pool,
                   std::span<const ChaseSpec> specs,
                   const std::vector<std::size_t>& pending,
                   const std::vector<std::uint64_t>& pending_hash,
                   std::span<const std::size_t> order,
                   const std::vector<Unit>& units,
                   const ChaseBatchOptions& options,
                   std::vector<PChaseResult>& results,
                   std::vector<std::uint64_t>& warm_full) {
  if (units.empty()) return;
  const PChaseEngine engine = pchase_engine();
  // Never more participants than units.
  const auto workers = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::max<std::uint32_t>(options.threads, 1), units.size()));
  while (pool.replicas.size() < workers) {
    pool.replicas.push_back(pool.replica_cache
                                ? pool.replica_cache->acquire(gpu)
                                : fork_replica(gpu));
  }

  // Per-slot scratch, merged single-threaded at the join.
  std::vector<std::uint64_t> slot_reset_ns(workers, 0);
  std::vector<sim::PathSnapshot> slot_scratch(workers);

  const auto run_unit = [&](std::size_t u, std::uint32_t slot) {
    const Unit& unit = units[u];
    const std::span<const std::size_t> ks =
        order.subspan(unit.first, unit.count);
    sim::Gpu& replica = pool.replicas[slot];
    {
      const obs::SpanGuard reset_span("replica.reset");
      const std::uint64_t reset_start = obs::monotonic_ns();
      replica.flush_caches();
      if (!unit.warm) {
        // The memo key IS the noise-stream seed (both are the full spec
        // fold).
        replica.reseed_noise(pending_hash[ks.front()]);
      }
      const std::uint64_t reset_ns = obs::monotonic_ns() - reset_start;
      slot_reset_ns[slot] += reset_ns;
      if (obs::metrics_enabled()) {
        obs::Metrics::instance().observe("replica.reset_ns",
                                         static_cast<double>(reset_ns));
      }
    }
    const ScopedPChaseEngine scope(engine);  // workers default to kCompiled
    if (!unit.warm) {
      const std::size_t k = ks.front();
      const obs::SpanGuard chase_span("chase.run");
      results[pending[k]] = run_chase(replica, specs[pending[k]]);
      warm_full[k] = results[pending[k]].warm_cycles;
      return;
    }
    // Warm-sharing unit: one incremental warm walk, many timed passes.
    const PChaseConfig& head = specs[pending[ks.front()]].config;
    const sim::AccessPath path =
        replica.compile_path(head.where, head.space, head.flags);
    std::uint64_t cur_steps = 0;
    std::uint64_t cum_warm = 0;
    if (unit.restore != nullptr) {
      replica.restore_path(path, unit.restore->state);
      cur_steps = unit.restore->steps;
      cum_warm = unit.restore->cum_warm_cycles;
    }
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const std::size_t k = ks[i];
      const std::size_t index = pending[k];
      const PChaseConfig& config = specs[index].config;
      const std::uint64_t steps = walk_steps_of(config);
      if (steps > cur_steps) {
        cum_warm += replica.run_warm_pass(
            path, config.base + cur_steps * config.stride_bytes,
            config.stride_bytes, steps - cur_steps);
        cur_steps = steps;
      }
      warm_full[k] = cum_warm;
      const bool last = i + 1 == ks.size();
      if (last && unit.save != nullptr) {
        replica.snapshot_path(path, unit.save->state);
        unit.save->has_state = true;
      }
      // Re-seeding here puts the timed pass at the exact stream position a
      // cold run would see: warm-up consumes zero draws.
      replica.reseed_noise(pending_hash[k]);
      PChaseConfig timed = config;
      timed.warmup = false;
      const obs::SpanGuard chase_span("chase.run");
      if (!last) {
        // The timed pass only touches sets its address prefix maps to;
        // snapshotting exactly those makes the restore rewind it fully.
        replica.snapshot_path_prefix(path, config.base, config.stride_bytes,
                                     timed_steps_of(config),
                                     slot_scratch[slot]);
        results[index] = run_pchase(replica, timed);
        replica.restore_path(path, slot_scratch[slot]);
      } else {
        results[index] = run_pchase(replica, timed);
      }
    }
  };

  if (workers == 1) {
    for (std::size_t u = 0; u < units.size(); ++u) run_unit(u, 0);
  } else {
    exec::Executor& executor =
        options.executor ? *options.executor : exec::shared_executor();
    executor.parallel_for(units.size(), workers, run_unit);
  }
  for (const std::uint64_t ns : slot_reset_ns) pool.reset_ns += ns;
}

/// Resolves memo hits and intra-batch duplicates in spec order, before any
/// chase runs, so which index carries the cycles is a function of the batch
/// contents alone — never of scheduling. Collects the first occurrences to
/// execute (and their memo keys); reports each memo hit to
/// @p on_hit(i, result) and each duplicate to @p on_duplicate(i, earlier).
template <typename OnHit, typename OnDuplicate>
void resolve_memo(const sim::Gpu& gpu, const ReplicaPool& pool,
                  std::span<const ChaseSpec> specs,
                  std::vector<std::size_t>& pending,
                  std::vector<std::uint64_t>& pending_hash, OnHit on_hit,
                  OnDuplicate on_duplicate) {
  const obs::SpanGuard memo_span("memo.resolve");
  // hash -> indices already pending, so duplicate detection stays linear
  // even for the N^2-pair CU-sharing batches.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> first_seen;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint64_t hash = chase_noise_seed(gpu.seed(), specs[i]);
    if (const PChaseResult* hit = probe_memo(pool, hash, specs[i])) {
      on_hit(i, *hit);
      continue;
    }
    auto& candidates = first_seen[hash];
    const auto earlier = std::find_if(
        candidates.begin(), candidates.end(),
        [&](std::size_t j) { return specs[j] == specs[i]; });
    if (earlier != candidates.end()) {
      on_duplicate(i, *earlier);
      continue;
    }
    candidates.push_back(i);
    pending.push_back(i);
    pending_hash.push_back(hash);
  }
}

/// The pool's prefetched chase of @p spec, or nullptr.
PrefetchedChase* find_prefetched(ReplicaPool& pool, std::uint64_t hash,
                                 const ChaseSpec& spec) {
  const auto bucket = pool.prefetched.find(hash);
  if (bucket == pool.prefetched.end()) return nullptr;
  const auto hit = std::find_if(
      bucket->second.begin(), bucket->second.end(),
      [&](const PrefetchedChase& chase) { return chase.spec == spec; });
  return hit == bucket->second.end() ? nullptr : &*hit;
}

/// Binds @p pool to the owning Gpu's current path epoch. After a cache
/// rebuild the replicas hold the old geometry, and memo results, warm
/// states and prefetched chases were measured against it.
void sync_epoch(const sim::Gpu& gpu, ReplicaPool& pool) {
  if (pool.epoch != gpu.path_epoch()) {
    pool.replicas.clear();
    pool.memo.clear();
    pool.warm_ledger.clear();
    pool.warm_state_bytes = 0;
    pool.prefetched.clear();
  }
  pool.epoch = gpu.path_epoch();
}

}  // namespace

PChaseResult run_chase(sim::Gpu& gpu, const ChaseSpec& spec) {
  switch (spec.kind) {
    case ChaseKind::kPlain:
      return run_pchase(gpu, spec.config);
    case ChaseKind::kAmount:
      return run_amount_pchase(gpu, spec.config, spec.partner, spec.base_b);
    case ChaseKind::kSharing:
      return run_sharing_pchase(gpu, spec.config, spec.config_b);
    case ChaseKind::kDualCu:
      return run_dual_cu_pchase(gpu, spec.config, spec.partner, spec.base_b);
  }
  return {};
}

bool is_prefetched(const sim::Gpu& gpu, const ReplicaPool& pool,
                   const ChaseSpec& spec) {
  const auto bucket = pool.prefetched.find(chase_noise_seed(gpu.seed(), spec));
  return bucket != pool.prefetched.end() &&
         std::any_of(bucket->second.begin(), bucket->second.end(),
                     [&](const PrefetchedChase& chase) {
                       return chase.spec == spec;
                     });
}

std::vector<PChaseResult> run_chase_batch(sim::Gpu& gpu,
                                          std::span<const ChaseSpec> specs,
                                          const ChaseBatchOptions& options) {
  std::vector<PChaseResult> results(specs.size());
  if (specs.empty()) return results;
  const obs::SpanGuard batch_span("chase.batch");

  ReplicaPool local_pool;
  ReplicaPool& pool = options.pool ? *options.pool : local_pool;
  sync_epoch(gpu, pool);

  std::vector<std::size_t> pending;          // first occurrences to execute
  std::vector<std::uint64_t> pending_hash;   // their memo keys
  std::vector<std::ptrdiff_t> copy_from(specs.size(), -1);
  const std::uint64_t memo_hits_before = pool.memo_stats.hits;
  resolve_memo(
      gpu, pool, specs, pending, pending_hash,
      [&](std::size_t i, const PChaseResult& hit) {
        results[i] = hit;
        results[i].total_cycles = 0;
        results[i].from_cache = true;
        ++pool.memo_stats.hits;
      },
      [&](std::size_t i, std::size_t earlier) {
        copy_from[i] = static_cast<std::ptrdiff_t>(earlier);
      });

  std::size_t prefetch_used = 0;
  if (!pending.empty()) {
    // ---- Prefetched chases ------------------------------------------------
    // A pending spec found in the prefetch table takes its raw result,
    // warm_full and warm-end snapshot from there instead of executing; the
    // plan and the booking below treat it exactly like an executed chase.
    std::vector<std::uint64_t> warm_full(pending.size(), 0);
    std::vector<PrefetchedChase*> prefetched(pending.size(), nullptr);
    if (!pool.prefetched.empty()) {
      for (std::size_t k = 0; k < pending.size(); ++k) {
        prefetched[k] =
            find_prefetched(pool, pending_hash[k], specs[pending[k]]);
        if (prefetched[k] == nullptr) continue;
        results[pending[k]] = prefetched[k]->result;
        warm_full[k] = prefetched[k]->warm_full;
        ++prefetch_used;
      }
    }

    // ---- Chunk plan (engine-independent) ----------------------------------
    // Group warm-compatible plain chases by WarmKey, sort each chain by walk
    // length (ties stay in spec order), and split it into chunks of at most
    // kChunkPoints members. The plan is a pure function of the batch
    // contents, and it is the one partition both the compiled engine
    // executes and the serial depth is priced over.
    struct Member {
      std::size_t k = 0;  ///< index into pending
      std::uint64_t steps = 0;
    };
    struct Chain {
      std::vector<Member> members;
      std::vector<std::vector<std::size_t>> chunks;  ///< pending indices
      WarmStateEntry end_state;  ///< state at the longest walk (compiled)
    };
    std::map<WarmKey, Chain> chains;
    std::vector<char> in_chain(pending.size(), 0);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const ChaseSpec& spec = specs[pending[k]];
      if (const auto key = warm_key_of(spec)) {
        chains[*key].members.push_back({k, walk_steps_of(spec.config)});
        in_chain[k] = 1;
      }
    }
    for (auto& [key, chain] : chains) {
      std::stable_sort(
          chain.members.begin(), chain.members.end(),
          [](const Member& a, const Member& b) { return a.steps < b.steps; });
      std::vector<std::size_t> current;
      for (const Member& m : chain.members) {
        current.push_back(m.k);
        const bool bounded =
            timed_steps_of(specs[pending[m.k]].config) <= kPrefixShareCap;
        // An unbounded (full-pass) timed run dirties state beyond any
        // cheap snapshot, so it closes its chunk as the final member.
        if (!bounded || current.size() >= kChunkPoints) {
          chain.chunks.push_back(std::move(current));
          current.clear();
        }
      }
      if (!current.empty()) chain.chunks.push_back(std::move(current));
    }

    // ---- Execution units --------------------------------------------------
    // The compiled engine runs each chunk's not-prefetched members as one
    // warm unit that resumes from the best ledger snapshot; each chunk
    // re-warms independently, trading some redundant warm work for
    // parallelism without touching results. The unit reaching the chain's
    // longest walk captures its warm state there so the next batch can
    // resume instead of re-warming. Everything else (non-chain shapes,
    // resamples, and every chain member under the reference engine) runs as
    // a cold singleton.
    const bool compiled = pchase_engine() == PChaseEngine::kCompiled;
    std::vector<std::size_t> order;  // every unit's pending indices
    order.reserve(pending.size());
    std::vector<Unit> units;
    for (auto& [key, chain] : chains) {
      const std::size_t longest = chain.members.back().k;
      if (prefetched[longest] != nullptr &&
          prefetched[longest]->has_end_state) {
        chain.end_state.state = std::move(prefetched[longest]->end_state);
        chain.end_state.has_state = true;
        prefetched[longest]->has_end_state = false;
      }
      if (!compiled) continue;
      for (const std::vector<std::size_t>& chunk : chain.chunks) {
        Unit unit;
        unit.first = order.size();
        unit.warm = true;
        for (const std::size_t k : chunk) {
          if (prefetched[k] == nullptr) order.push_back(k);
        }
        unit.count = order.size() - unit.first;
        if (unit.count == 0) continue;
        unit.restore = resume_point(
            pool, key, walk_steps_of(specs[pending[order[unit.first]]].config));
        if (order.back() == longest) unit.save = &chain.end_state;
        units.push_back(unit);
      }
    }
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (prefetched[k] == nullptr && (!compiled || !in_chain[k])) {
        units.push_back(Unit{order.size()});
        order.push_back(k);
      }
    }
    execute_units(gpu, pool, specs, pending, pending_hash, order, units,
                  options, results, warm_full);

    // ---- Engine-independent booking + ledger update (in chain order) ------
    // Each chain member is charged the incremental warm cost over its
    // predecessor — the previous chain member, or the longest prior ledger
    // walk not exceeding its own — plus its timed pass: a chain's warm cost
    // telescopes to its longest walk instead of being paid once per member.
    // The rule consumes only cold-equivalent cumulative totals (warm_full)
    // and the ledger's numeric records, both of which are pure functions of
    // the deterministic batch sequence — never of thread count, engine,
    // scheduling or prefetching — so reports stay byte-identical across
    // every execution shape. (Accounting IS chain-aware by design: sharing
    // warm-up is what removes the warm cycles from the booked critical
    // path.)
    for (auto& [key, chain] : chains) {
      const auto ledger = pool.warm_ledger.find(key);
      for (std::size_t i = 0; i < chain.members.size(); ++i) {
        const Member& m = chain.members[i];
        std::uint64_t prior_steps = 0;
        std::uint64_t prior_cum = 0;
        if (ledger != pool.warm_ledger.end()) {
          for (const WarmStateEntry& e : ledger->second) {
            if (e.steps <= m.steps && e.steps >= prior_steps) {
              prior_steps = e.steps;
              prior_cum = e.cum_warm_cycles;
            }
          }
        }
        if (i > 0 && chain.members[i - 1].steps >= prior_steps) {
          prior_steps = chain.members[i - 1].steps;
          prior_cum = warm_full[chain.members[i - 1].k];
        }
        PChaseResult& r = results[pending[m.k]];
        const std::uint64_t timed_cycles = r.total_cycles - r.warm_cycles;
        r.warm_cycles = warm_full[m.k] - prior_cum;
        r.total_cycles = r.warm_cycles + timed_cycles;
      }
      const Member& longest = chain.members.back();
      WarmStateEntry entry = std::move(chain.end_state);
      entry.steps = longest.steps;
      entry.cum_warm_cycles = warm_full[longest.k];
      insert_ledger_entry(pool, key, std::move(entry));
    }

    // ---- Serial depth (engine-independent) --------------------------------
    // The batch's Amdahl floor under unbounded sweep threads: the most
    // expensive chunk of the plan (its members' booked cycles summed) or
    // non-chain singleton. Summed over batches (sequential by construction)
    // this gives the pool's serially-dependent cycle depth, which the stage
    // runner uses to price a stage's critical-path contribution.
    std::uint64_t batch_serial = 0;
    for (const auto& [key, chain] : chains) {
      for (const std::vector<std::size_t>& chunk : chain.chunks) {
        std::uint64_t chunk_cycles = 0;
        for (const std::size_t k : chunk) {
          chunk_cycles += results[pending[k]].total_cycles;
        }
        batch_serial = std::max(batch_serial, chunk_cycles);
      }
    }
    std::uint64_t batch_total = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      batch_total += results[pending[k]].total_cycles;
      if (!in_chain[k]) {
        batch_serial = std::max(batch_serial, results[pending[k]].total_cycles);
      }
    }
    pool.chase_cycles += batch_total;
    pool.serial_cycles += batch_serial;

    pool.memo_stats.misses += pending.size();
    for (std::size_t k = 0; k < pending.size(); ++k) {
      pool.memo[pending_hash[k]].emplace_back(specs[pending[k]],
                                              results[pending[k]]);
    }
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (copy_from[i] < 0) continue;
    results[i] = results[static_cast<std::size_t>(copy_from[i])];
    results[i].total_cycles = 0;
    results[i].from_cache = true;
    ++pool.memo_stats.hits;
  }
  if (obs::metrics_enabled()) {
    obs::Metrics& metrics = obs::Metrics::instance();
    const std::uint64_t hits = pool.memo_stats.hits - memo_hits_before;
    if (hits > 0) metrics.add("memo.hits", static_cast<double>(hits));
    if (!pending.empty()) {
      metrics.add("memo.misses", static_cast<double>(pending.size()));
    }
    if (prefetch_used > 0) {
      metrics.add("chase.prefetch_used", static_cast<double>(prefetch_used));
    }
  }
  return results;
}

void prefetch_chases(sim::Gpu& gpu, std::span<const ChaseSpec> specs,
                     const ChaseBatchOptions& options) {
  if (options.pool == nullptr) return;
  ReplicaPool& pool = *options.pool;
  sync_epoch(gpu, pool);
  pool.prefetched.clear();  // the previous round's off-path results
  if (specs.empty()) return;
  const obs::SpanGuard prefetch_span("chase.prefetch");

  std::vector<std::size_t> pending;
  std::vector<std::uint64_t> pending_hash;
  resolve_memo(
      gpu, pool, specs, pending, pending_hash,
      [](std::size_t, const PChaseResult&) {}, [](std::size_t, std::size_t) {});
  if (pending.empty()) return;

  // Every spec is its own unit, so each is a chain's longest walk at its
  // own commit unless that batch extends the chain: capture every warm end.
  const bool compiled = pchase_engine() == PChaseEngine::kCompiled;
  std::vector<WarmStateEntry> end_states(pending.size());
  std::vector<std::size_t> order(pending.size());
  std::vector<Unit> units(pending.size());
  for (std::size_t k = 0; k < pending.size(); ++k) {
    order[k] = k;
    units[k].first = k;
    const ChaseSpec& spec = specs[pending[k]];
    if (const auto key = warm_key_of(spec); compiled && key) {
      units[k].warm = true;
      units[k].restore = resume_point(pool, *key, walk_steps_of(spec.config));
      units[k].save = &end_states[k];
    }
  }
  std::vector<PChaseResult> results(specs.size());
  std::vector<std::uint64_t> warm_full(pending.size(), 0);
  execute_units(gpu, pool, specs, pending, pending_hash, order, units, options,
                results, warm_full);

  for (std::size_t k = 0; k < pending.size(); ++k) {
    pool.prefetched[pending_hash[k]].push_back(
        {specs[pending[k]], std::move(results[pending[k]]), warm_full[k],
         std::move(end_states[k].state), end_states[k].has_state});
  }
  if (obs::metrics_enabled()) {
    obs::Metrics::instance().add("chase.prefetched",
                                 static_cast<double>(pending.size()));
  }
}

std::vector<PChaseResult> run_pchase_batch(sim::Gpu& gpu,
                                           std::span<const PChaseConfig> configs,
                                           const ChaseBatchOptions& options) {
  std::vector<ChaseSpec> specs;
  specs.reserve(configs.size());
  for (const PChaseConfig& config : configs) {
    specs.push_back(ChaseSpec::plain(config));
  }
  return run_chase_batch(gpu, specs, options);
}

}  // namespace mt4g::runtime
