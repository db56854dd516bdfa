// Warm-up state sharing tests: the correctness contract of the chain/chunk
// execution in runtime/batch.cpp. A warm-shared timed pass (snapshot +
// incremental warm + restore) must record byte-identical measurements to a
// cold full chase for every chase shape, for every sweep thread count, with
// the snapshot budget at zero, and across batches through the pool's
// warm-state ledger. Cycle accounting is chain-aware (members book the
// incremental warm cost) but engine- and schedule-independent: the reference
// engine replaying the same batch history books identical cycles, and the
// serial depth priced over the chunk plan is the same for every engine and
// thread count. Resampled chases must never join a chain: they exist to draw
// fresh noise.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "exec/executor.hpp"
#include "runtime/batch.hpp"
#include "runtime/kernels.hpp"
#include "sim/registry.hpp"

namespace mt4g::runtime {
namespace {

// A warm chain the size benchmark would produce: many plain chases on one
// base/stride (shared WarmKey) with growing array sizes, plus a second
// stride (a second chain) and bounded timed passes of differing caps.
std::vector<ChaseSpec> chain_specs(sim::Gpu& gpu) {
  const std::uint64_t base = gpu.alloc(64 * KiB, 256);
  std::vector<ChaseSpec> specs;
  for (const std::uint32_t stride : {32u, 64u}) {
    for (std::size_t i = 0; i < 12; ++i) {
      PChaseConfig config;
      config.base = base;
      config.array_bytes = 2 * KiB + i * 768;
      config.stride_bytes = stride;
      config.record_count = 128;
      config.max_timed_steps = i % 3 == 0 ? 0 : 64 + 32 * (i % 4);
      specs.push_back(ChaseSpec::plain(config));
    }
  }
  return specs;
}

// The full shape mix of the benchmark suite in one batch: chains of plain
// chases next to amount/sharing specs (which never join a chain).
std::vector<ChaseSpec> mixed_specs(sim::Gpu& gpu) {
  std::vector<ChaseSpec> specs = chain_specs(gpu);
  const std::uint64_t base_a = gpu.alloc(8 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(8 * KiB, 256);

  PChaseConfig amount_config;
  amount_config.base = base_a;
  amount_config.array_bytes = 3584;  // 7/8 of the 4 KiB L1
  amount_config.stride_bytes = 32;
  amount_config.record_count = 128;
  specs.push_back(ChaseSpec::amount(amount_config, 2, base_b));

  PChaseConfig sharing_a = amount_config;
  sharing_a.array_bytes = 896;  // 7/8 of the 1 KiB constant L1
  sharing_a.space = sim::Space::kConstant;
  specs.push_back(ChaseSpec::sharing(sharing_a, amount_config));
  return specs;
}

bool equal_results(const std::vector<PChaseResult>& a,
                   const std::vector<PChaseResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].latencies != b[i].latencies ||
        a[i].timed_loads != b[i].timed_loads ||
        a[i].total_cycles != b[i].total_cycles ||
        a[i].warm_cycles != b[i].warm_cycles ||
        a[i].served_by.raw() != b[i].served_by.raw()) {
      return false;
    }
  }
  return true;
}

// The cold truth: the reference engine runs every chase as an isolated cold
// singleton — no snapshots, no incremental warm-up. The chain-aware booking
// rule applies identically afterwards, so cycles must match too.
std::vector<PChaseResult> cold_reference(sim::Gpu& gpu,
                                         const std::vector<ChaseSpec>& specs) {
  ScopedPChaseEngine scope(PChaseEngine::kReference);
  return run_chase_batch(gpu, specs);
}

// Everything a batch sequence leaves in a pool that later batches or the
// report read: the booking totals, memo statistics and keys, and the
// ledger's numeric walk records.
void expect_same_books(const ReplicaPool& a, const ReplicaPool& b) {
  EXPECT_EQ(a.chase_cycles, b.chase_cycles);
  EXPECT_EQ(a.serial_cycles, b.serial_cycles);
  EXPECT_EQ(a.memo_stats.hits, b.memo_stats.hits);
  EXPECT_EQ(a.memo_stats.misses, b.memo_stats.misses);
  EXPECT_EQ(a.warm_state_bytes, b.warm_state_bytes);
  ASSERT_EQ(a.memo.size(), b.memo.size());
  for (const auto& [hash, entries] : a.memo) {
    const auto other = b.memo.find(hash);
    ASSERT_NE(other, b.memo.end());
    ASSERT_EQ(entries.size(), other->second.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_TRUE(entries[i].first == other->second[i].first);
    }
  }
  ASSERT_EQ(a.warm_ledger.size(), b.warm_ledger.size());
  for (const auto& [key, entries] : a.warm_ledger) {
    const auto other = b.warm_ledger.find(key);
    ASSERT_NE(other, b.warm_ledger.end());
    ASSERT_EQ(entries.size(), other->second.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].steps, other->second[i].steps);
      EXPECT_EQ(entries[i].cum_warm_cycles, other->second[i].cum_warm_cycles);
    }
  }
}

TEST(WarmSharing, CommittingAPrefetchedChaseEqualsExecutingIt) {
  // Prefetch a chain's specs plus extras that are never committed, then
  // commit a subset in separate batches (singletons and a mixed batch in
  // which only some members were prefetched). A pool that executed the same
  // commit sequence without prefetching must end with identical results,
  // booking, memo and ledger records — for both engines and with the
  // snapshot budget at zero. A prefetch followed by no commit leaves the
  // books untouched.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);  // two chains of 12 walks
  const std::vector<ChaseSpec> ahead = {specs[2], specs[5], specs[9],
                                        specs[14], specs[20], specs[11]};
  const std::vector<std::vector<ChaseSpec>> commits = {
      {specs[5]},
      {specs[2]},
      {specs[9], specs[10], specs[14], specs[15]},
      {specs[3]},
  };
  exec::Executor executor(3);
  for (const auto engine : {PChaseEngine::kCompiled, PChaseEngine::kReference}) {
    for (const std::uint64_t budget : {256ULL << 20, 0ULL}) {
      ScopedPChaseEngine scope(engine);
      ChaseBatchOptions options;
      options.threads = 4;
      options.executor = &executor;
      ReplicaPool executed;
      executed.warm_state_budget = budget;
      ReplicaPool committed;
      committed.warm_state_budget = budget;

      // Seed both pools' ledgers with one shared batch, so prefetches
      // resume from a non-empty ledger.
      const std::vector<ChaseSpec> seed = {specs[0], specs[12]};
      options.pool = &executed;
      (void)run_chase_batch(gpu, seed, options);
      options.pool = &committed;
      (void)run_chase_batch(gpu, seed, options);

      const std::uint64_t reset_before = committed.reset_ns;
      prefetch_chases(gpu, ahead, options);
      EXPECT_GT(committed.reset_ns, reset_before);  // it did execute
      expect_same_books(executed, committed);  // ... but booked nothing
      EXPECT_TRUE(is_prefetched(gpu, committed, specs[5]));
      EXPECT_FALSE(is_prefetched(gpu, committed, specs[3]));
      EXPECT_FALSE(is_prefetched(gpu, committed, specs[0]));  // memo hit
      EXPECT_FALSE(is_prefetched(gpu, executed, specs[5]));

      for (const auto& batch : commits) {
        options.pool = &executed;
        const auto want = run_chase_batch(gpu, batch, options);
        options.pool = &committed;
        const auto got = run_chase_batch(gpu, batch, options);
        EXPECT_TRUE(equal_results(want, got))
            << "engine=" << static_cast<int>(engine) << " budget=" << budget;
      }
      expect_same_books(executed, committed);
    }
  }
}

TEST(WarmSharing, SharedTimedPassMatchesColdChaseForEveryShape) {
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = mixed_specs(gpu);
  const auto cold = cold_reference(gpu, specs);

  exec::Executor executor(7);  // real pool threads on any host
  for (const std::uint32_t threads : {1u, 8u}) {
    ChaseBatchOptions options;
    options.threads = threads;
    options.executor = &executor;
    ReplicaPool pool;
    options.pool = &pool;
    const auto shared = run_chase_batch(gpu, specs, options);
    EXPECT_TRUE(equal_results(cold, shared))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, SerialDepthIsEngineAndThreadIndependent) {
  // Serial depth is priced over the batch's chunk plan: chain_specs lays out
  // two chains of 12 bounded walks (chunks of the first 8 and the last 4
  // members each), and mixed_specs adds two non-chain singletons. The
  // compiled engine at 1 and 8 threads and the reference engine (which runs
  // every member cold) must book the same total and the same serial depth,
  // and that depth is the most expensive chunk or singleton.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = mixed_specs(gpu);
  ASSERT_EQ(specs.size(), 26u);

  exec::Executor executor(7);
  std::vector<ReplicaPool> pools(3);
  std::vector<PChaseResult> results;
  for (std::size_t run = 0; run < pools.size(); ++run) {
    ScopedPChaseEngine scope(run == 2 ? PChaseEngine::kReference
                                      : PChaseEngine::kCompiled);
    ChaseBatchOptions options;
    options.threads = run == 1 ? 8 : 1;
    options.executor = &executor;
    options.pool = &pools[run];
    results = run_chase_batch(gpu, specs, options);
  }
  for (const ReplicaPool& pool : pools) {
    EXPECT_EQ(pool.chase_cycles, pools[0].chase_cycles);
    EXPECT_EQ(pool.serial_cycles, pools[0].serial_cycles);
  }

  const auto booked = [&](std::size_t first, std::size_t count) {
    std::uint64_t sum = 0;
    for (std::size_t i = first; i < first + count; ++i) {
      sum += results[i].total_cycles;
    }
    return sum;
  };
  std::uint64_t expected = 0;
  for (const std::size_t chain : {std::size_t{0}, std::size_t{12}}) {
    expected = std::max({expected, booked(chain, 8), booked(chain + 8, 4)});
  }
  expected = std::max({expected, booked(24, 1), booked(25, 1)});
  EXPECT_EQ(pools[0].serial_cycles, expected);
  EXPECT_EQ(pools[0].chase_cycles, booked(0, specs.size()));
  EXPECT_LT(pools[0].serial_cycles, pools[0].chase_cycles);
}

TEST(WarmSharing, DualCuBatchesMatchTheColdReference) {
  // The fourth chase shape lives on the AMD model: CU pairs probing the
  // shared sL1d. Dual-CU chases never join a chain, but they ride in the
  // same batches as chained plain chases and must stay cold-identical.
  sim::Gpu gpu(sim::registry_get("TestGPU-AMD"), 42);
  PChaseConfig config;
  config.space = sim::Space::kScalar;
  config.array_bytes = 896;  // 7/8 of the 1 KiB sL1d
  config.stride_bytes = 64;
  config.record_count = 64;
  config.base = gpu.alloc(1 * KiB, 256);
  const std::uint64_t base_b = gpu.alloc(1 * KiB, 256);
  std::vector<ChaseSpec> specs;
  for (std::uint32_t cu_b = 1; cu_b < 6; ++cu_b) {
    specs.push_back(ChaseSpec::dual_cu(config, cu_b, base_b));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    PChaseConfig plain = config;
    plain.array_bytes = 512 + 64 * i;
    specs.push_back(ChaseSpec::plain(plain));
  }
  const auto cold = cold_reference(gpu, specs);

  exec::Executor executor(7);
  for (const std::uint32_t threads : {1u, 8u}) {
    ChaseBatchOptions options;
    options.threads = threads;
    options.executor = &executor;
    ReplicaPool pool;
    options.pool = &pool;
    EXPECT_TRUE(equal_results(cold, run_chase_batch(gpu, specs, options)))
        << "threads=" << threads << " diverged from the cold reference";
  }
}

TEST(WarmSharing, SnapshotBudgetZeroStillMatchesCold) {
  // With no snapshot budget the ledger keeps only the numeric walk records:
  // every chunk re-warms from scratch, and results must not move.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  const auto cold = cold_reference(gpu, specs);

  ChaseBatchOptions options;
  ReplicaPool pool;
  pool.warm_state_budget = 0;
  options.pool = &pool;
  EXPECT_TRUE(equal_results(cold, run_chase_batch(gpu, specs, options)));
  EXPECT_EQ(pool.warm_state_bytes, 0u);
  for (const auto& [key, entries] : pool.warm_ledger) {
    for (const auto& entry : entries) {
      EXPECT_FALSE(entry.has_state);
      EXPECT_GT(entry.steps, 0u);
    }
  }
}

TEST(WarmSharing, LedgerResumesAcrossBatchesWithoutChangingResults) {
  // Batch A records short walks in the pool's ledger; batch B extends the
  // same WarmKeys to longer walks. Resuming from the ledger must not change
  // any measurement, must book strictly less warm cost than a fresh pool
  // (that is the point of the ledger), and the booking must stay
  // engine-independent: the reference engine replaying the same two-batch
  // history lands on identical cycles.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  std::vector<ChaseSpec> first;
  std::vector<ChaseSpec> second;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    (i % 12 < 6 ? first : second).push_back(specs[i]);
  }

  ChaseBatchOptions fresh;
  ReplicaPool fresh_pool;
  fresh.pool = &fresh_pool;
  const auto alone = run_chase_batch(gpu, second, fresh);

  ChaseBatchOptions resumed;
  ReplicaPool pool;
  resumed.pool = &pool;
  const auto first_results = run_chase_batch(gpu, first, resumed);
  EXPECT_FALSE(pool.warm_ledger.empty());
  const auto after = run_chase_batch(gpu, second, resumed);
  ASSERT_EQ(alone.size(), after.size());
  std::uint64_t alone_warm = 0;
  std::uint64_t after_warm = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].latencies, alone[i].latencies) << "spec " << i;
    EXPECT_EQ(after[i].timed_loads, alone[i].timed_loads) << "spec " << i;
    EXPECT_EQ(after[i].served_by.raw(), alone[i].served_by.raw())
        << "spec " << i;
    EXPECT_EQ(after[i].total_cycles - after[i].warm_cycles,
              alone[i].total_cycles - alone[i].warm_cycles)
        << "spec " << i;
    alone_warm += alone[i].warm_cycles;
    after_warm += after[i].warm_cycles;
  }
  EXPECT_LT(after_warm, alone_warm);

  ScopedPChaseEngine scope(PChaseEngine::kReference);
  ChaseBatchOptions ref_options;
  ReplicaPool ref_pool;
  ref_options.pool = &ref_pool;
  const auto ref_first = run_chase_batch(gpu, first, ref_options);
  const auto ref_after = run_chase_batch(gpu, second, ref_options);
  EXPECT_TRUE(equal_results(first_results, ref_first));
  EXPECT_TRUE(equal_results(after, ref_after));
}

TEST(WarmSharing, LedgerRecordsWalksSortedWithMonotoneWarmCost) {
  // Every completed chain records its longest walk; records stay sorted
  // strictly ascending by steps with cumulative warm cost monotone in walk
  // length (a longer walk of the same key can never cost less).
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  ChaseBatchOptions options;
  ReplicaPool pool;
  options.pool = &pool;
  (void)run_chase_batch(gpu, specs, options);
  // A second batch of shorter walks must extend the record set, not clobber
  // the longer walks.
  const std::vector<ChaseSpec> shorter(specs.begin(), specs.begin() + 3);
  (void)run_chase_batch(gpu, shorter, options);
  EXPECT_FALSE(pool.warm_ledger.empty());
  for (const auto& [key, entries] : pool.warm_ledger) {
    ASSERT_FALSE(entries.empty());
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].steps, entries[i].steps);
      EXPECT_LE(entries[i - 1].cum_warm_cycles, entries[i].cum_warm_cycles);
    }
  }
}

TEST(WarmSharing, ResampledChasesDrawFreshNoise) {
  // Two chases identical up to the resample index share a WarmKey but must
  // not share a noise stream: the resample exists to decorrelate repeated
  // measurements. Both must still be independent of batch composition.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  PChaseConfig config;
  config.base = gpu.alloc(16 * KiB, 256);
  config.array_bytes = 6 * KiB;
  config.stride_bytes = 32;
  config.record_count = 128;
  PChaseConfig resampled = config;
  resampled.resample = 1;

  const std::vector<ChaseSpec> both = {ChaseSpec::plain(config),
                                       ChaseSpec::plain(resampled)};
  const auto together = run_chase_batch(gpu, both, {});
  EXPECT_NE(together[0].latencies, together[1].latencies);

  const auto alone =
      run_chase_batch(gpu, std::vector<ChaseSpec>{both[1]}, {});
  EXPECT_EQ(together[1].latencies, alone[0].latencies);
  EXPECT_EQ(together[1].total_cycles, alone[0].total_cycles);
}

TEST(WarmSharing, WarmCyclesTelescopeAlongChains) {
  // Chain-aware accounting: a chain's first member pays the full cold warm
  // cost, every later member books only the increment over its predecessor,
  // and the chain's booked warm total telescopes to the cold warm cost of
  // its longest walk — sharing removes the repeated warm-up from the booked
  // cycles. Timed-pass costs stay composition-independent.
  sim::Gpu gpu(sim::registry_get("TestGPU-NV"), 42);
  const auto specs = chain_specs(gpu);
  ChaseBatchOptions options;
  ReplicaPool pool;
  options.pool = &pool;
  const auto results = run_chase_batch(gpu, specs, options);
  // chain_specs lays out two chains of 12 walks each (one per stride), in
  // increasing walk length — exactly the chain order the planner derives.
  for (const std::size_t start : {std::size_t{0}, std::size_t{12}}) {
    std::uint64_t chain_warm = 0;
    std::uint64_t longest_cold_warm = 0;
    for (std::size_t i = start; i < start + 12; ++i) {
      ChaseBatchOptions single;
      ReplicaPool single_pool;
      single.pool = &single_pool;
      const auto alone =
          run_chase_batch(gpu, std::vector<ChaseSpec>{specs[i]}, single);
      if (i == start) {
        EXPECT_EQ(results[i].warm_cycles, alone[0].warm_cycles)
            << "chain-first spec " << i << " must pay the full warm cost";
      } else {
        EXPECT_LT(results[i].warm_cycles, alone[0].warm_cycles)
            << "spec " << i;
      }
      EXPECT_GT(results[i].warm_cycles, 0u) << "spec " << i;
      EXPECT_EQ(results[i].total_cycles - results[i].warm_cycles,
                alone[0].total_cycles - alone[0].warm_cycles)
          << "spec " << i;
      chain_warm += results[i].warm_cycles;
      longest_cold_warm = alone[0].warm_cycles;
    }
    EXPECT_EQ(chain_warm, longest_cold_warm)
        << "chain warm total must telescope to its longest walk";
  }
}

}  // namespace
}  // namespace mt4g::runtime
