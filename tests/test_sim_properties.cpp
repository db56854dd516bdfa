// Property-based tests on the simulator's invariants, driven by seeded
// random access sequences. These pin the behaviours every microbenchmark
// depends on, independent of any specific GPU model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/cache.hpp"
#include "sim/gpu.hpp"
#include "sim/registry.hpp"

namespace mt4g::sim {
namespace {

CacheGeometry random_geometry(Xoshiro256& rng) {
  CacheGeometry g;
  const std::uint32_t line_choices[] = {32, 64, 128, 256};
  g.line_bytes = line_choices[rng.uniform_int(0, 3)];
  const std::uint32_t sector_divisors[] = {1, 2, 4};
  g.sector_bytes = g.line_bytes / sector_divisors[rng.uniform_int(0, 2)];
  g.associativity = static_cast<std::uint32_t>(1 << rng.uniform_int(0, 4));
  g.size_bytes = g.line_bytes * (8 + rng.uniform_int(0, 120));
  return g;
}

class CachePropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachePropertySweep, HitsPlusMissesEqualsAccesses) {
  Xoshiro256 rng(GetParam());
  SectoredCache cache(random_geometry(rng));
  constexpr int kAccesses = 5000;
  for (int i = 0; i < kAccesses; ++i) {
    cache.access(rng.uniform_int(0, 64 * KiB));
  }
  EXPECT_EQ(cache.hits() + cache.misses(), kAccesses);
}

TEST_P(CachePropertySweep, ImmediateReaccessAlwaysHits) {
  Xoshiro256 rng(GetParam() + 100);
  SectoredCache cache(random_geometry(rng));
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t address = rng.uniform_int(0, 256 * KiB);
    cache.access(address);
    EXPECT_TRUE(cache.access(address).sector_hit) << "address " << address;
  }
}

TEST_P(CachePropertySweep, PeekAgreesWithNextAccessOutcome) {
  Xoshiro256 rng(GetParam() + 200);
  SectoredCache cache(random_geometry(rng));
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t address = rng.uniform_int(0, 32 * KiB);
    const CacheAccess predicted = cache.peek(address);
    const CacheAccess actual = cache.access(address);
    EXPECT_EQ(predicted.sector_hit, actual.sector_hit);
    EXPECT_EQ(predicted.line_hit, actual.line_hit);
  }
}

TEST_P(CachePropertySweep, ResidentSetNeverExceedsCapacity) {
  Xoshiro256 rng(GetParam() + 300);
  const CacheGeometry geometry = random_geometry(rng);
  SectoredCache cache(geometry);
  std::set<std::uint64_t> touched_lines;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t address = rng.uniform_int(0, 512 * KiB);
    cache.access(address);
    touched_lines.insert(address / geometry.line_bytes);
  }
  // Count resident lines via peek over everything ever touched.
  std::size_t resident = 0;
  for (const std::uint64_t line : touched_lines) {
    if (cache.peek(line * geometry.line_bytes).line_hit) ++resident;
  }
  EXPECT_LE(resident, geometry.num_lines());
}

TEST_P(CachePropertySweep, WarmCyclicPassIsAllHitsIffArrayFits) {
  // The foundational premise of the size benchmark (paper Fig. 1), held
  // across random geometries: a cyclic chase over an array <= capacity hits
  // everywhere after warm-up, and misses somewhere as soon as it exceeds it.
  Xoshiro256 rng(GetParam() + 400);
  const CacheGeometry geometry = random_geometry(rng);
  for (const bool fits : {true, false}) {
    SectoredCache cache(geometry);
    const std::uint64_t array =
        fits ? geometry.size_bytes : geometry.size_bytes + geometry.line_bytes;
    for (std::uint64_t a = 0; a < array; a += geometry.sector_bytes) {
      cache.access(a);
    }
    cache.reset_counters();
    for (std::uint64_t a = 0; a < array; a += geometry.sector_bytes) {
      cache.access(a);
    }
    if (fits) {
      EXPECT_EQ(cache.misses(), 0u) << geometry.size_bytes;
    } else {
      EXPECT_GT(cache.misses(), 0u) << geometry.size_bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachePropertySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(GpuProperties, LatencyMonotoneInHierarchyDepth) {
  // Across every registry model: a load served deeper is never faster
  // (modulo the bounded jitter), which is what makes latency samples
  // classifiable at all.
  for (const auto& name : registry_all_names()) {
    const GpuSpec& spec = registry_get(name);
    Gpu gpu(spec, 3);
    const auto base = gpu.alloc(512);
    const auto cold = gpu.access_traced({0, 0}, Space::kGlobal, base);
    const auto warm = gpu.access_traced({0, 0}, Space::kGlobal, base);
    EXPECT_EQ(cold.served_by, Element::kDeviceMem) << name;
    EXPECT_GT(cold.latency + 3, warm.latency) << name;
    EXPECT_GT(cold.latency, warm.latency / 2) << name;
  }
}

// Local mirror of core::depth_rank to avoid a core dependency in a sim test.
int depth_rank_for_test(Element element) {
  switch (element) {
    case Element::kL1:
    case Element::kTexture:
    case Element::kReadOnly:
    case Element::kConstL1:
    case Element::kVL1:
    case Element::kSL1D:
    case Element::kSharedMem:
    case Element::kLds:
      return 0;
    default:
      return 1;
  }
}

TEST(GpuProperties, EverySpaceReachesItsFirstLevelWarm) {
  for (const auto& name : registry_all_names()) {
    const GpuSpec& spec = registry_get(name);
    Gpu gpu(spec, 4);
    const auto base = gpu.alloc(512);
    const std::vector<Space> spaces =
        spec.vendor == Vendor::kNvidia
            ? std::vector<Space>{Space::kGlobal, Space::kTexture,
                                 Space::kReadOnly, Space::kConstant}
            : std::vector<Space>{Space::kGlobal, Space::kScalar};
    for (const Space space : spaces) {
      gpu.flush_caches();
      gpu.access({0, 0}, space, base);
      const auto warm = gpu.access_traced({0, 0}, space, base);
      EXPECT_EQ(depth_rank_for_test(warm.served_by), 0)
          << name << " " << space_name(space);
    }
  }
}

TEST(GpuProperties, FlushedGpuReplaysIdenticalServeSequence) {
  // Flush + identical access sequence => identical serve levels (cache state
  // is a pure function of the access history).
  const GpuSpec& spec = registry_get("TestGPU-NV");
  Gpu gpu(spec, 7);
  Xoshiro256 rng(99);
  const auto base = gpu.alloc(64 * KiB);
  std::vector<std::uint64_t> addresses;
  for (int i = 0; i < 3000; ++i) {
    addresses.push_back(base + rng.uniform_int(0, 32 * KiB));
  }
  std::vector<Element> first;
  for (const auto a : addresses) {
    first.push_back(gpu.access_traced({0, 0}, Space::kGlobal, a).served_by);
  }
  gpu.flush_caches();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addresses[i]).served_by,
              first[i])
        << i;
  }
}

// --- Replica reset equivalence ---------------------------------------------
//
// A replica is recycled with flush_caches() + reseed_noise() instead of
// being re-forked. That is only sound if the reset leaves it
// indistinguishable from a fresh fork, whatever ran on it before: the dirty
// list must have covered every cache a pass or restore reached, including
// L2 segments rebuilt by a fetch-granularity change.

/// Everything a chase sequence lets a caller observe.
struct Observation {
  std::vector<std::uint32_t> latencies;
  std::vector<std::uint64_t> served;    ///< per chase, per element
  std::vector<std::uint64_t> counters;  ///< hit/miss deltas, fixed order
};

/// Warm walk, then a timed pass whose latencies and serve levels are kept.
void timed_chase(Gpu& gpu, const AccessPath& path, std::uint64_t base,
                 std::uint64_t bytes, Observation& out, bool warm = true) {
  const std::uint64_t steps = bytes / 32;
  if (warm) gpu.run_warm_pass(path, base, 32, steps);
  ElementCounts served;
  gpu.run_pass(path, base, 32, steps, &served, &out.latencies,
               out.latencies.size() + steps);
  out.served.insert(out.served.end(), served.raw().begin(),
                    served.raw().end());
}

std::vector<std::uint64_t> counter_vector(
    const Gpu& gpu, const std::vector<std::uint32_t>& sms) {
  std::vector<std::uint64_t> counters;
  for (const std::uint32_t sm : sms) {
    for (const auto& [element, espec] : gpu.spec().elements) {
      counters.push_back(gpu.hit_count(sm, element));
      counters.push_back(gpu.miss_count(sm, element));
    }
  }
  return counters;
}

/// Chases over every space of the vendor on a few SMs and cores, the AMD
/// dual-CU sL1d shape, a snapshot/restore round trip and an L2 rebuild.
Observation exercise(Gpu& gpu, std::uint64_t a, std::uint64_t b) {
  const GpuSpec& spec = gpu.spec();
  const bool nvidia = spec.vendor == Vendor::kNvidia;
  // sL1d partners share physical_cu / sl1d_group_size; `far` shares with
  // neither.
  const auto sl1d_of = [&spec](std::uint32_t cu) {
    return spec.physical_cu(cu) /
           std::max<std::uint32_t>(spec.sl1d_group_size, 1);
  };
  std::uint32_t partner = 0;
  std::uint32_t far = 0;
  for (std::uint32_t cu = 1; cu < spec.num_sms; ++cu) {
    if (partner == 0 && sl1d_of(cu) == sl1d_of(0)) partner = cu;
    if (far == 0 && sl1d_of(cu) != sl1d_of(0)) far = cu;
  }
  const std::vector<std::uint32_t> sms = {0, 1, partner, far};
  const std::vector<std::uint64_t> before = counter_vector(gpu, sms);

  Observation out;
  AccessFlags bypass;
  bypass.bypass_l1 = true;
  const std::vector<Space> spaces =
      nvidia ? std::vector<Space>{Space::kGlobal, Space::kTexture,
                                  Space::kReadOnly, Space::kConstant}
             : std::vector<Space>{Space::kGlobal, Space::kScalar,
                                  Space::kConstant};
  for (const Space space : spaces) {
    for (const Placement where : {Placement{0, 0}, Placement{1, 1}}) {
      timed_chase(gpu, gpu.compile_path(where, space), a, 8 * KiB, out);
    }
  }
  timed_chase(gpu, gpu.compile_path({0, 0}, Space::kGlobal, bypass), b,
              64 * KiB, out);

  if (!nvidia) {
    // Dual-CU shape: CU 0 warms, a second CU thrashes its own array, CU 0
    // is timed. Evicts through a shared sL1d, not through a private one.
    for (const std::uint32_t other : {partner, far}) {
      const AccessPath first = gpu.compile_path({0, 0}, Space::kScalar);
      const AccessPath second = gpu.compile_path({other, 0}, Space::kScalar);
      gpu.run_warm_pass(first, a, 32, spec.at(Element::kSL1D).size_bytes / 64);
      gpu.run_warm_pass(second, b, 32, spec.at(Element::kSL1D).size_bytes / 32);
      timed_chase(gpu, first, a, spec.at(Element::kSL1D).size_bytes / 2, out,
                  /*warm=*/false);
    }
  }

  // Snapshot/restore round trip, as the warm-sharing engine uses it.
  {
    const AccessPath path = gpu.compile_path({1, 0}, Space::kGlobal);
    gpu.run_warm_pass(path, a, 32, 16 * KiB / 32);
    PathSnapshot snap;
    gpu.snapshot_path_prefix(path, a, 32, 4 * KiB / 32, snap);
    timed_chase(gpu, path, a, 4 * KiB, out, /*warm=*/false);
    gpu.restore_path(path, snap);
    timed_chase(gpu, path, a, 4 * KiB, out, /*warm=*/false);
    PathSnapshot whole;
    gpu.snapshot_path(path, whole);
    gpu.restore_path(path, whole);
    timed_chase(gpu, path, a, 8 * KiB, out, /*warm=*/false);
  }
  // Loads that only run_pass reaches: no warm walk on this placement.
  for (std::uint64_t offset = 0; offset < 4 * KiB; offset += 256) {
    const AccessResult r =
        gpu.access_traced({far, 0}, Space::kGlobal, b + offset);
    out.latencies.push_back(r.latency);
    out.served.push_back(static_cast<std::uint64_t>(r.served_by));
  }

  // L2 rebuild: a fetch granularity other than the current one.
  const ElementSpec& l2 = spec.at(Element::kL2);
  gpu.set_l2_fetch_granularity(
      l2.sector_bytes == l2.line_bytes ? l2.line_bytes / 2 : l2.line_bytes);
  timed_chase(gpu, gpu.compile_path({0, 0}, Space::kGlobal, bypass), b,
              32 * KiB, out);

  const std::vector<std::uint64_t> after = counter_vector(gpu, sms);
  for (std::size_t i = 0; i < after.size(); ++i) {
    out.counters.push_back(after[i] - before[i]);
  }

  // End on state that only a restore reached, as when a warm-sharing chunk
  // resumes into a just-flushed replica: the caller's next flush must drop
  // it, so the restore alone has to put the path on the dirty list.
  const AccessPath path = gpu.compile_path({1, 0}, Space::kGlobal);
  PathSnapshot warm;
  gpu.snapshot_path(path, warm);
  gpu.flush_caches();
  gpu.restore_path(path, warm);
  return out;
}

TEST(ReplicaReset, FlushedReplicaMatchesFreshFork) {
  for (const char* name : {"TestGPU-NV", "TestGPU-AMD", "MI355X-preview"}) {
    SCOPED_TRACE(name);
    Gpu owner(registry_get(name), 21);
    const std::uint64_t a = owner.alloc(64 * KiB);
    const std::uint64_t b = owner.alloc(64 * KiB);

    Gpu replica = owner.fork(5);
    const Observation dirtying = exercise(replica, a, b);
    // Forked now, the fresh replica carries the rebuilt L2 geometry too.
    Gpu fresh = replica.fork(77);
    replica.flush_caches();
    replica.reseed_noise(77);
    const Observation recycled = exercise(replica, a, b);
    const Observation reference = exercise(fresh, a, b);
    EXPECT_EQ(recycled.latencies, reference.latencies);
    EXPECT_EQ(recycled.served, reference.served);
    EXPECT_EQ(recycled.counters, reference.counters);
    EXPECT_FALSE(dirtying.latencies.empty());
  }
}

// --- Lazy materialisation ----------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define MT4G_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MT4G_TEST_ASAN 1
#endif
#endif

/// Resident set size of this process, or -1 where /proc is unavailable.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t pages = 0;
  std::int64_t resident = -1;
  if (!(statm >> pages >> resident)) return -1;
  return resident * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(ReplicaCost, ForksMaterialiseOnlyTouchedPages) {
#ifdef MT4G_TEST_ASAN
  GTEST_SKIP() << "ASan shadow memory distorts the resident set size";
#endif
  const GpuSpec& spec = registry_get("MI355X-preview");
  const std::int64_t before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/statm";
  Gpu owner(spec, 1);
  std::vector<Gpu> forks;
  for (std::uint64_t i = 0; i < 16; ++i) forks.push_back(owner.fork(i));
  const std::int64_t grown = resident_bytes() - before;
  // Each replica maps ~30 MB of way state (mostly the L3 tag array); a
  // fork that wrote it would cost ~500 MB here.
  EXPECT_LT(grown, std::int64_t{64} << 20);

  // A chase on a replica materialises pages for the sets it touches only.
  const std::uint64_t base = owner.alloc(64 * KiB);
  const AccessPath path = forks[3].compile_path({5, 0}, Space::kScalar);
  forks[3].run_pass(path, base, 64, 1024);
  EXPECT_LT(resident_bytes() - before, std::int64_t{64} << 20);
}

}  // namespace
}  // namespace mt4g::sim
