#include "sim/gpu.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "common/units.hpp"
#include "sim/registry.hpp"

namespace mt4g::sim {
namespace {

Gpu make_test_nv() { return Gpu(registry_get("TestGPU-NV"), 1); }
Gpu make_test_amd() { return Gpu(registry_get("TestGPU-AMD"), 1); }

TEST(GpuSim, AllocatorReturnsAlignedDisjointRanges) {
  Gpu gpu = make_test_nv();
  const auto a = gpu.alloc(100, 256);
  const auto b = gpu.alloc(100, 256);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_NE(a, 0u);  // address 0 is never handed out
}

TEST(GpuSim, GlobalLoadServedByL1AfterWarmup) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);  // cold fill
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr);
  EXPECT_EQ(r.served_by, Element::kL1);
  // Latency near the spec value (30) plus bounded jitter.
  EXPECT_GE(r.latency, 30u);
  EXPECT_LE(r.latency, 30u + 3 + 400);
}

TEST(GpuSim, BypassL1GoesToL2) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  AccessFlags cg;
  cg.bypass_l1 = true;
  gpu.access({0, 0}, Space::kGlobal, addr, cg);
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr, cg);
  EXPECT_EQ(r.served_by, Element::kL2);
}

TEST(GpuSim, ColdAccessFallsThroughToDeviceMemory) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, addr);
  EXPECT_EQ(r.served_by, Element::kDeviceMem);
}

TEST(GpuSim, ConstantChainWalksCl1ThenCl15) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kConstant, addr);  // fills CL1 + CL1.5
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kConstant, addr).served_by,
            Element::kConstL1);
  // Thrash CL1 (1 KiB on the test GPU) with a 2 KiB chase; CL1.5 (8 KiB)
  // still holds everything.
  const auto big = gpu.alloc(2048);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t off = 0; off < 2048; off += 32) {
      gpu.access({0, 0}, Space::kConstant, big + off);
    }
  }
  // After the cyclic pass, the oldest entries are evicted from CL1; a fresh
  // walk is served by CL1.5.
  const auto r = gpu.access_traced({0, 0}, Space::kConstant, big);
  EXPECT_EQ(r.served_by, Element::kConstL15);
}

TEST(GpuSim, SharedMemoryIsFlatLatency) {
  Gpu gpu = make_test_nv();
  const auto r = gpu.access_traced({0, 0}, Space::kShared, 0);
  EXPECT_EQ(r.served_by, Element::kSharedMem);
  EXPECT_GE(r.latency, 25u);
}

TEST(GpuSim, TextureSharesPhysicalCacheWithL1) {
  // TestGPU-NV puts Texture in L1's physical group: a texture warm-up of one
  // array must evict a same-sized global-space array (paper IV-G mechanics).
  Gpu gpu = make_test_nv();
  const std::uint64_t array = 4 * KiB;  // == L1 segment capacity
  const auto a = gpu.alloc(array);
  const auto b = gpu.alloc(array);
  for (std::uint64_t off = 0; off < array; off += 32) {
    gpu.access({0, 0}, Space::kGlobal, a + off);
  }
  for (std::uint64_t off = 0; off < array; off += 32) {
    gpu.access({0, 0}, Space::kTexture, b + off);
  }
  // Array A is gone from the shared physical cache.
  const auto r = gpu.access_traced({0, 0}, Space::kGlobal, a);
  EXPECT_NE(r.served_by, Element::kL1);
}

TEST(GpuSim, ConstantCacheIsPhysicallySeparateFromL1) {
  Gpu gpu = make_test_nv();
  const auto a = gpu.alloc(512);
  const auto b = gpu.alloc(4 * KiB);
  gpu.access({0, 0}, Space::kConstant, a);
  for (std::uint64_t off = 0; off < 4 * KiB; off += 32) {
    gpu.access({0, 0}, Space::kGlobal, b + off);  // saturate L1
  }
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kConstant, a).served_by,
            Element::kConstL1);
}

TEST(GpuSim, CoreSegmentPartitioning) {
  // TestGPU-NV: 16 cores, 2 L1 segments -> cores 0-7 segment 0, 8-15 seg 1.
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);  // fill via core 0
  // Core 7 shares the segment: hit. Core 8 does not: falls through.
  EXPECT_EQ(gpu.access_traced({0, 7}, Space::kGlobal, addr).served_by,
            Element::kL1);
  EXPECT_NE(gpu.access_traced({0, 8}, Space::kGlobal, addr).served_by,
            Element::kL1);
}

TEST(GpuSim, SmsHavePrivateL1s) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  EXPECT_NE(gpu.access_traced({1, 0}, Space::kGlobal, addr).served_by,
            Element::kL1);
}

TEST(GpuSim, L2SegmentAffinity) {
  // TestGPU-NV has 2 L2 segments over 4 SMs: SM 0/1 -> seg 0, SM 2/3 -> 1.
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  AccessFlags cg;
  cg.bypass_l1 = true;
  gpu.access({0, 0}, Space::kGlobal, addr, cg);
  EXPECT_EQ(gpu.access_traced({1, 0}, Space::kGlobal, addr, cg).served_by,
            Element::kL2);  // same segment
  EXPECT_EQ(gpu.access_traced({2, 0}, Space::kGlobal, addr, cg).served_by,
            Element::kDeviceMem);  // other segment: cold
}

TEST(GpuSim, AmdScalarPathUsesSl1d) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kScalar, addr);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
}

TEST(GpuSim, AmdSl1dSharedBetweenPairedCusOnly) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  // Logical CU 0 (physical 0) and logical CU 1 (physical 1) share an sL1d.
  gpu.access({0, 0}, Space::kScalar, addr);
  EXPECT_EQ(gpu.access_traced({1, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
  // Logical CU 2 (physical 2) has its own (partner fused off): cold there.
  EXPECT_NE(gpu.access_traced({2, 0}, Space::kScalar, addr).served_by,
            Element::kSL1D);
}

TEST(GpuSim, AmdGlobalWalksVl1L2Dram) {
  Gpu gpu = make_test_amd();
  const auto addr = gpu.alloc(256);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kDeviceMem);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kVL1);
  AccessFlags glc;
  glc.bypass_l1 = true;
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL2);
}

TEST(GpuSim, Mi300xL3SitsBetweenL2AndDram) {
  Gpu gpu(registry_get("MI300X"), 1);
  const auto addr = gpu.alloc(512);
  AccessFlags glc;
  glc.bypass_l1 = true;
  // Cold: DRAM. Then the L2 of SM 0's XCD holds it; an SM on another XCD
  // misses its own L2 but hits the chip-wide L3.
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kDeviceMem);
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL2);
  EXPECT_EQ(gpu.access_traced({300, 0}, Space::kGlobal, addr, glc).served_by,
            Element::kL3);
}

TEST(GpuSim, FlushRestoresColdState) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  gpu.flush_caches();
  EXPECT_EQ(gpu.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kDeviceMem);
}

// The dirty list points into the Gpu's own caches: a copy would flush the
// original's caches, so Gpu is move-only.
static_assert(!std::is_copy_constructible_v<Gpu>);
static_assert(!std::is_copy_assignable_v<Gpu>);

TEST(GpuSim, MovedGpuKeepsStateAndFlushes) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  Gpu moved = std::move(gpu);
  EXPECT_EQ(moved.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kL1);
  moved.flush_caches();
  EXPECT_EQ(moved.access_traced({0, 0}, Space::kGlobal, addr).served_by,
            Element::kDeviceMem);
}

TEST(GpuSim, CountersTrackMissesAndReset) {
  Gpu gpu = make_test_nv();
  const auto addr = gpu.alloc(256);
  gpu.access({0, 0}, Space::kGlobal, addr);
  EXPECT_GE(gpu.miss_count(0, Element::kL1), 1u);
  EXPECT_GE(gpu.miss_count(0, Element::kDeviceMem), 1u);
  gpu.reset_counters();
  EXPECT_EQ(gpu.miss_count(0, Element::kL1), 0u);
  EXPECT_EQ(gpu.miss_count(0, Element::kDeviceMem), 0u);
}

TEST(GpuSim, MigRestrictsVisibleResources) {
  const GpuSpec& a100 = registry_get("A100");
  Gpu full(a100, 1);
  EXPECT_EQ(full.visible_sms(), 108u);
  EXPECT_EQ(full.single_sm_visible_l2(), 20 * MiB);  // one partition

  Gpu small(a100, 1, a100.mig_profiles.back());  // 1g.5gb
  EXPECT_EQ(small.visible_sms(), 14u);
  EXPECT_EQ(small.single_sm_visible_l2(), 5 * MiB);

  Gpu half(a100, 1, a100.mig_profiles[1]);  // 4g.20gb
  EXPECT_EQ(half.single_sm_visible_l2(), 20 * MiB);  // same as full GPU!
}

TEST(GpuSim, DeterministicForSameSeed) {
  Gpu a = make_test_nv();
  Gpu b = make_test_nv();
  const auto addr_a = a.alloc(4096);
  const auto addr_b = b.alloc(4096);
  for (std::uint64_t off = 0; off < 4096; off += 32) {
    EXPECT_EQ(a.access({0, 0}, Space::kGlobal, addr_a + off),
              b.access({0, 0}, Space::kGlobal, addr_b + off));
  }
}

TEST(GpuSim, OutOfRangeSmThrows) {
  Gpu gpu = make_test_nv();
  EXPECT_THROW(gpu.access({99, 0}, Space::kGlobal, gpu.alloc(64)),
               std::out_of_range);
}

}  // namespace
}  // namespace mt4g::sim
