#include "sim/gpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/units.hpp"

namespace mt4g::sim {
namespace {

bool is_per_sm_cache(Element element) {
  switch (element) {
    case Element::kL1:
    case Element::kTexture:
    case Element::kReadOnly:
    case Element::kConstL1:
    case Element::kConstL15:
    case Element::kVL1:
      return true;
    default:
      return false;
  }
}

CacheGeometry geometry_of(const ElementSpec& spec) {
  CacheGeometry g;
  g.size_bytes = spec.size_bytes;
  g.line_bytes = spec.line_bytes;
  g.sector_bytes = spec.sector_bytes;
  g.associativity = spec.associativity;
  return g;
}

}  // namespace

Gpu::Gpu(const GpuSpec& spec, std::uint64_t seed, std::optional<MigProfile> mig,
         const NoiseParams& noise)
    : spec_(spec),
      mig_(std::move(mig)),
      seed_(seed),
      noise_(noise, Xoshiro256(seed)) {
  // Per-SM caches, one physical cache per sharing group. Elements that share
  // a physical_group must agree on geometry; the first one encountered wins
  // and a mismatch is a spec bug we surface immediately.
  for (const auto& [element, espec] : spec_.elements) {
    if (!is_per_sm_cache(element)) continue;
    if (const SmGroup* group = sm_group(element)) {
      const auto& rep = spec_.at(group->representative);
      if (rep.size_bytes != espec.size_bytes ||
          rep.line_bytes != espec.line_bytes ||
          rep.sector_bytes != espec.sector_bytes) {
        throw std::invalid_argument(
            "gpu: elements sharing physical_group disagree on geometry");
      }
      continue;
    }
    const std::uint32_t segments = std::max<std::uint32_t>(espec.amount, 1);
    sm_groups_.push_back({espec.physical_group, element, sm_slots_, segments});
    sm_slots_ += segments;
  }
  std::vector<std::uint32_t> sl1d_groups;
  if (spec_.has(Element::kSL1D)) {
    for (std::uint32_t logical = 0; logical < spec_.num_sms; ++logical) {
      sl1d_groups.push_back(spec_.physical_cu(logical) /
                            std::max<std::uint32_t>(spec_.sl1d_group_size, 1));
    }
    std::sort(sl1d_groups.begin(), sl1d_groups.end());
    sl1d_groups.erase(std::unique(sl1d_groups.begin(), sl1d_groups.end()),
                      sl1d_groups.end());
  }
  const std::uint32_t l2_count =
      spec_.has(Element::kL2)
          ? std::max<std::uint32_t>(spec_.at(Element::kL2).amount, 1)
          : 0;

  // One mapping for the way state of every cache.
  const auto state_bytes = [this](Element element) {
    return SectoredCache::state_bytes(geometry_of(spec_.at(element)));
  };
  std::size_t bytes = 0;
  for (const SmGroup& group : sm_groups_) {
    bytes += std::size_t{spec_.num_sms} * group.segments *
             state_bytes(group.representative);
  }
  if (l2_count > 0) bytes += l2_count * state_bytes(Element::kL2);
  if (spec_.has(Element::kL3)) bytes += state_bytes(Element::kL3);
  if (!sl1d_groups.empty()) {
    bytes += sl1d_groups.size() * state_bytes(Element::kSL1D);
  }
  pages_ = ZeroPages(bytes);

  sm_caches_.reserve(std::size_t{spec_.num_sms} * sm_slots_);
  for (std::uint32_t sm = 0; sm < spec_.num_sms; ++sm) {
    for (const SmGroup& group : sm_groups_) {
      for (std::uint32_t s = 0; s < group.segments; ++s) {
        sm_caches_.emplace_back(geometry_of(spec_.at(group.representative)),
                                pages_);
      }
    }
  }
  l2_segments_.reserve(l2_count);
  for (std::uint32_t s = 0; s < l2_count; ++s) {
    l2_segments_.emplace_back(geometry_of(spec_.at(Element::kL2)), pages_);
  }
  if (spec_.has(Element::kL3)) {
    l3_ = std::make_unique<SectoredCache>(
        geometry_of(spec_.at(Element::kL3)), pages_);
  }
  for (const std::uint32_t group : sl1d_groups) {
    sl1d_.try_emplace(group, geometry_of(spec_.at(Element::kSL1D)), pages_);
  }
  dirty_.reserve(sm_caches_.size() + l2_segments_.size() + (l3_ ? 1 : 0) +
                 sl1d_.size());
}

void Gpu::set_l2_fetch_granularity(std::uint32_t bytes) {
  if (!spec_.has(Element::kL2)) {
    throw std::invalid_argument("set_l2_fetch_granularity: no L2 cache");
  }
  auto& l2 = spec_.elements.at(Element::kL2);
  if (bytes == 0 || l2.line_bytes % bytes != 0) {
    throw std::invalid_argument(
        "set_l2_fetch_granularity: granularity must divide the line size");
  }
  l2.sector_bytes = bytes;
  // Rebuilding loses the segments' content (the real cudaDeviceSetLimit does
  // flush), but the accumulated hit/miss counters are telemetry, not cache
  // state: carry them over so a mid-discovery granularity switch does not
  // zero the scout counter report. The rebuilt segments bring their own
  // zero pages and start off the dirty list.
  std::erase_if(dirty_, [this](const SectoredCache* cache) {
    return std::any_of(
        l2_segments_.begin(), l2_segments_.end(),
        [cache](const SectoredCache& segment) { return &segment == cache; });
  });
  for (auto& segment : l2_segments_) {
    SectoredCache rebuilt(geometry_of(l2));
    rebuilt.set_counters(segment.hits(), segment.misses());
    segment = std::move(rebuilt);
  }
  ++path_epoch_;  // compiled paths hold dangling L2 pointers now
}

Gpu Gpu::fork(std::uint64_t noise_seed) const {
  // spec_ carries every runtime mutation (set_l2_fetch_granularity rewrites
  // the L2 sector size in place), so reconstructing from it reproduces the
  // current configuration with pristine cache contents. Construction maps
  // the way state but writes none of it.
  Gpu replica(spec_, noise_seed, mig_, noise_.params());
  replica.heap_top_ = heap_top_;
  return replica;
}

void Gpu::reseed_noise(std::uint64_t noise_seed) {
  noise_ = NoiseModel(noise_.params(), Xoshiro256(noise_seed));
}

std::uint32_t Gpu::l2_fetch_granularity() const {
  return spec_.has(Element::kL2) ? spec_.at(Element::kL2).sector_bytes : 0;
}

std::uint32_t Gpu::visible_sms() const {
  return mig_ ? mig_->sm_count : spec_.num_sms;
}

std::uint64_t Gpu::single_sm_visible_l2() const {
  if (!spec_.has(Element::kL2)) return 0;
  const std::uint64_t segment = spec_.at(Element::kL2).size_bytes;
  return mig_ ? std::min<std::uint64_t>(mig_->l2_bytes, segment) : segment;
}

std::uint64_t Gpu::alloc(std::uint64_t bytes, std::uint64_t alignment) {
  if (alignment == 0) alignment = 1;
  heap_top_ = round_up(heap_top_, alignment);
  const std::uint64_t base = heap_top_;
  heap_top_ += round_up(std::max<std::uint64_t>(bytes, 1), alignment);
  return base;
}

AccessPath Gpu::compile_path(const Placement& where, Space space,
                             AccessFlags flags) {
  AccessPath path;
  path.epoch = path_epoch_;

  if (space == Space::kShared) {
    // Scratchpads bypass the cache hierarchy entirely: the path has no cache
    // levels and terminates in Shared Memory / LDS, not device memory.
    path.terminal = spec_.vendor == Vendor::kNvidia ? Element::kSharedMem
                                                    : Element::kLds;
    path.terminal_latency = rounded_latency(path.terminal);
    path.terminal_is_dmem = false;
    return path;
  }

  Element chain[AccessPath::kMaxLevels];
  std::size_t chain_len = 0;
  auto push_if = [this, &chain, &chain_len](Element e) {
    if (spec_.has(e)) chain[chain_len++] = e;
  };
  if (spec_.vendor == Vendor::kNvidia) {
    switch (space) {
      case Space::kGlobal:
        if (!flags.bypass_l1) push_if(Element::kL1);
        push_if(Element::kL2);
        break;
      case Space::kTexture:
        push_if(Element::kTexture);
        push_if(Element::kL2);
        break;
      case Space::kReadOnly:
        push_if(Element::kReadOnly);
        push_if(Element::kL2);
        break;
      case Space::kConstant:
        push_if(Element::kConstL1);
        push_if(Element::kConstL15);
        push_if(Element::kL2);
        break;
      case Space::kShared:
      case Space::kScalar:
        throw std::invalid_argument("gpu: space has no cache chain");
    }
  } else {
    switch (space) {
      case Space::kGlobal:
        if (!flags.bypass_l1) push_if(Element::kVL1);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kScalar:
        push_if(Element::kSL1D);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kTexture:
      case Space::kReadOnly:
      case Space::kConstant:
        // AMD routes these through the vector L1 path.
        if (!flags.bypass_l1) push_if(Element::kVL1);
        push_if(Element::kL2);
        push_if(Element::kL3);
        break;
      case Space::kShared:
        throw std::invalid_argument("gpu: space has no cache chain");
    }
  }

  // Resolve each chain element to its physical segment for this placement.
  // Elements without a backing cache instance (segment_for == nullptr) are
  // skipped at compile time, exactly as the per-load walk skipped them.
  for (std::size_t i = 0; i < chain_len; ++i) {
    SectoredCache* cache = segment_for(where, chain[i]);
    if (cache == nullptr) continue;
    path.levels[path.depth++] = {cache, chain[i], rounded_latency(chain[i])};
  }
  path.terminal = Element::kDeviceMem;
  path.terminal_latency = rounded_latency(Element::kDeviceMem);
  return path;
}

namespace {

/// The per-load body of a batched pass, specialised at compile time on
/// whether served counters and latency recording are wanted, so the bulk of
/// a pass (typically thousands of loads past the record limit) runs with no
/// per-load capacity checks at all.
template <bool kServed, bool kRecord>
std::uint64_t pass_loop(const AccessPath& path, std::uint64_t base,
                        std::uint64_t stride_bytes, std::uint64_t first,
                        std::uint64_t last, NoiseModel& noise,
                        std::uint64_t& dmem_accesses, ElementCounts* served,
                        std::vector<std::uint32_t>* record) {
  std::uint64_t total_cycles = 0;
  for (std::uint64_t i = first; i < last; ++i) {
    const std::uint64_t address = base + i * stride_bytes;
    Element served_by = path.terminal;
    std::uint32_t base_latency = path.terminal_latency;
    bool hit = false;
    for (std::size_t level = 0; level < path.depth; ++level) {
      const CacheAccess a = path.levels[level].cache->access(address);
      if (a.sector_hit) {
        served_by = path.levels[level].element;
        base_latency = path.levels[level].latency;
        hit = true;
        break;
      }
    }
    if (!hit && path.terminal_is_dmem) ++dmem_accesses;
    const std::uint32_t latency = noise.sample_rounded(base_latency);
    total_cycles += latency;
    if constexpr (kServed) ++(*served)[served_by];
    if constexpr (kRecord) record->push_back(latency);
  }
  return total_cycles;
}

}  // namespace

std::uint64_t Gpu::run_pass(const AccessPath& path, std::uint64_t base,
                            std::uint64_t stride_bytes, std::uint64_t steps,
                            ElementCounts* served,
                            std::vector<std::uint32_t>* record,
                            std::uint64_t record_limit) {
  if (path.epoch != path_epoch_) {
    throw std::logic_error(
        "gpu: stale AccessPath (caches were rebuilt after compile_path)");
  }
  enlist(path);
  // Recorded loads are a prefix of the pass; split there so the bulk loop
  // carries no record bookkeeping.
  std::uint64_t recorded = 0;
  if (record != nullptr && record->size() < record_limit) {
    recorded = std::min<std::uint64_t>(steps, record_limit - record->size());
  }
  std::uint64_t total_cycles = 0;
  if (recorded > 0) {
    total_cycles +=
        served != nullptr
            ? pass_loop<true, true>(path, base, stride_bytes, 0, recorded,
                                    noise_, dmem_accesses_, served, record)
            : pass_loop<false, true>(path, base, stride_bytes, 0, recorded,
                                     noise_, dmem_accesses_, served, record);
  }
  total_cycles +=
      served != nullptr
          ? pass_loop<true, false>(path, base, stride_bytes, recorded, steps,
                                   noise_, dmem_accesses_, served, record)
          : pass_loop<false, false>(path, base, stride_bytes, recorded, steps,
                                    noise_, dmem_accesses_, served, record);
  return total_cycles;
}

std::uint64_t Gpu::run_warm_pass(const AccessPath& path, std::uint64_t base,
                                 std::uint64_t stride_bytes,
                                 std::uint64_t steps) {
  if (path.epoch != path_epoch_) {
    throw std::logic_error(
        "gpu: stale AccessPath (caches were rebuilt after compile_path)");
  }
  enlist(path);
  std::uint64_t total_cycles = 0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const std::uint64_t address = base + i * stride_bytes;
    std::uint32_t base_latency = path.terminal_latency;
    bool hit = false;
    for (std::size_t level = 0; level < path.depth; ++level) {
      const CacheAccess a = path.levels[level].cache->access(address);
      if (a.sector_hit) {
        base_latency = path.levels[level].latency;
        hit = true;
        break;
      }
    }
    if (!hit && path.terminal_is_dmem) ++dmem_accesses_;
    total_cycles += base_latency;
  }
  return total_cycles;
}

std::uint32_t Gpu::warm_access(const Placement& where, Space space,
                               std::uint64_t address, AccessFlags flags) {
  const AccessPath path = compile_path(where, space, flags);
  return static_cast<std::uint32_t>(
      run_warm_pass(path, address, /*stride_bytes=*/0, /*steps=*/1));
}

void Gpu::snapshot_path(const AccessPath& path, PathSnapshot& out) const {
  if (path.epoch != path_epoch_) {
    throw std::logic_error("gpu: snapshot of a stale AccessPath");
  }
  out.depth = path.depth;
  out.epoch = path.epoch;
  for (std::size_t level = 0; level < path.depth; ++level) {
    path.levels[level].cache->snapshot(out.levels[level]);
  }
}

void Gpu::snapshot_path_prefix(const AccessPath& path, std::uint64_t base,
                               std::uint64_t stride_bytes, std::uint64_t steps,
                               PathSnapshot& out) const {
  if (path.epoch != path_epoch_) {
    throw std::logic_error("gpu: snapshot of a stale AccessPath");
  }
  out.depth = path.depth;
  out.epoch = path.epoch;
  for (std::size_t level = 0; level < path.depth; ++level) {
    path.levels[level].cache->snapshot_addresses(base, stride_bytes, steps,
                                                 out.levels[level]);
  }
}

void Gpu::restore_path(const AccessPath& path, const PathSnapshot& snap) {
  if (path.epoch != path_epoch_ || snap.epoch != path_epoch_ ||
      snap.depth != path.depth) {
    throw std::logic_error("gpu: restore of a stale PathSnapshot");
  }
  enlist(path);
  for (std::size_t level = 0; level < path.depth; ++level) {
    path.levels[level].cache->restore(snap.levels[level]);
  }
}

void Gpu::enlist(const AccessPath& path) {
  for (std::size_t level = 0; level < path.depth; ++level) {
    SectoredCache* cache = path.levels[level].cache;
    if (cache->enlist()) dirty_.push_back(cache);
  }
}

const Gpu::SmGroup* Gpu::sm_group(Element element) const {
  const std::uint32_t physical_group = spec_.at(element).physical_group;
  for (const SmGroup& group : sm_groups_) {
    if (group.physical_group == physical_group) return &group;
  }
  return nullptr;
}

std::span<const SectoredCache> Gpu::sm_segments(std::uint32_t sm,
                                                Element element) const {
  const SmGroup* group = sm < spec_.num_sms ? sm_group(element) : nullptr;
  if (group == nullptr) return {};
  return {sm_caches_.data() + std::size_t{sm} * sm_slots_ + group->first,
          group->segments};
}

SectoredCache* Gpu::segment_for(const Placement& where, Element element) {
  if (element == Element::kL2) {
    if (l2_segments_.empty()) return nullptr;
    return &l2_segments_[spec_.l2_segment_of(where.sm)];
  }
  if (element == Element::kL3) {
    return l3_.get();
  }
  if (element == Element::kSL1D) {
    const std::uint32_t group =
        spec_.physical_cu(where.sm) / std::max<std::uint32_t>(spec_.sl1d_group_size, 1);
    const auto it = sl1d_.find(group);
    return it == sl1d_.end() ? nullptr : &it->second;
  }
  if (where.sm >= spec_.num_sms) {
    throw std::out_of_range("gpu: SM index out of range");
  }
  const SmGroup* group = sm_group(element);
  if (group == nullptr) return nullptr;
  // Cores are partitioned across segments in contiguous blocks.
  const std::uint32_t cores = std::max<std::uint32_t>(spec_.cores_per_sm, 1);
  const std::size_t index = std::min<std::size_t>(
      static_cast<std::size_t>(where.core) * group->segments / cores,
      group->segments - 1);
  return &sm_caches_[std::size_t{where.sm} * sm_slots_ + group->first + index];
}

double Gpu::level_latency(Element element) const {
  return spec_.at(element).latency_cycles;
}

std::uint32_t Gpu::rounded_latency(Element element) const {
  // Half-up rounding, matching NoiseModel::sample's treatment of a raw
  // double base latency.
  return static_cast<std::uint32_t>(spec_.at(element).latency_cycles + 0.5);
}

AccessResult Gpu::access_traced(const Placement& where, Space space,
                                std::uint64_t address, AccessFlags flags) {
  const AccessPath path = compile_path(where, space, flags);
  ElementCounts served;
  AccessResult result;
  result.latency = static_cast<std::uint32_t>(
      run_pass(path, address, /*stride_bytes=*/0, /*steps=*/1, &served));
  for (std::size_t i = 0; i < kElementCount; ++i) {
    if (served.raw()[i] != 0) {
      result.served_by = static_cast<Element>(i);
      break;
    }
  }
  return result;
}

std::uint32_t Gpu::access(const Placement& where, Space space,
                          std::uint64_t address, AccessFlags flags) {
  return access_traced(where, space, address, flags).latency;
}

void Gpu::flush_caches() {
  for (SectoredCache* cache : dirty_) cache->flush();
  dirty_.clear();
}

std::uint64_t Gpu::miss_count(std::uint32_t sm, Element element) const {
  if (element == Element::kDeviceMem) return dmem_accesses_;
  std::uint64_t total = 0;
  if (element == Element::kL2) {
    for (const auto& segment : l2_segments_) total += segment.misses();
    return total;
  }
  if (element == Element::kL3) {
    return l3_ ? l3_->misses() : 0;
  }
  if (element == Element::kSL1D) {
    for (const auto& [group, cache] : sl1d_) total += cache.misses();
    return total;
  }
  for (const auto& segment : sm_segments(sm, element)) {
    total += segment.misses();
  }
  return total;
}

std::uint64_t Gpu::hit_count(std::uint32_t sm, Element element) const {
  std::uint64_t total = 0;
  if (element == Element::kL2) {
    for (const auto& segment : l2_segments_) total += segment.hits();
    return total;
  }
  if (element == Element::kL3) {
    return l3_ ? l3_->hits() : 0;
  }
  if (element == Element::kSL1D) {
    for (const auto& [group, cache] : sl1d_) total += cache.hits();
    return total;
  }
  if (element == Element::kDeviceMem) return 0;
  for (const auto& segment : sm_segments(sm, element)) {
    total += segment.hits();
  }
  return total;
}

void Gpu::reset_counters() {
  for (auto& cache : sm_caches_) cache.reset_counters();
  for (auto& segment : l2_segments_) segment.reset_counters();
  if (l3_) l3_->reset_counters();
  for (auto& [group, cache] : sl1d_) cache.reset_counters();
  dmem_accesses_ = 0;
}

std::uint32_t Gpu::scratchpad_access() {
  const Element e = spec_.vendor == Vendor::kNvidia ? Element::kSharedMem
                                                    : Element::kLds;
  return noise_.sample(level_latency(e));
}

}  // namespace mt4g::sim
