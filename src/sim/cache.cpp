#include "sim/cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>
#include <utility>

namespace mt4g::sim {

namespace {

struct Shape {
  std::uint32_t sets = 1;
  std::uint32_t ways = 1;
};

Shape shape_of(const CacheGeometry& geometry) {
  if (geometry.line_bytes == 0 || geometry.sector_bytes == 0 ||
      geometry.size_bytes == 0) {
    throw std::invalid_argument("cache: zero-sized geometry");
  }
  if (geometry.sector_bytes > geometry.line_bytes ||
      geometry.line_bytes % geometry.sector_bytes != 0) {
    throw std::invalid_argument("cache: sector must divide line");
  }
  if (geometry.size_bytes % geometry.line_bytes != 0) {
    throw std::invalid_argument("cache: size must be a multiple of line size");
  }
  if (geometry.line_bytes / geometry.sector_bytes > 32) {
    throw std::invalid_argument("cache: more than 32 sectors per line");
  }
  const std::uint64_t lines = geometry.num_lines();
  // Keep the exact capacity even when the nominal associativity does not
  // divide the line count (e.g. a 238 KiB "true L1"): choose the largest set
  // count <= lines/associativity that divides the line count, so that
  // sets * ways == lines holds exactly. Falls back to fully associative.
  const std::uint64_t max_ways = std::min<std::uint64_t>(
      std::max<std::uint32_t>(geometry.associativity, 1), lines);
  std::uint64_t sets = std::max<std::uint64_t>(lines / max_ways, 1);
  while (sets > 1 && lines % sets != 0) --sets;
  return {static_cast<std::uint32_t>(sets),
          static_cast<std::uint32_t>(lines / sets)};
}

}  // namespace

ZeroPages::ZeroPages(std::size_t bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // A transparent huge page would materialise 2 MiB on the first touch of a
  // tag array that a chase touches in a few dozen sets.
  ::madvise(p, bytes, MADV_NOHUGEPAGE);
  base_ = static_cast<std::byte*>(p);
  size_ = bytes;
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      used_(std::exchange(other.used_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, size_);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    used_ = std::exchange(other.used_, 0);
  }
  return *this;
}

ZeroPages::~ZeroPages() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

void* ZeroPages::carve(std::size_t bytes) {
  const std::size_t take = carved_size(bytes);
  if (take > size_ - used_) {
    throw std::logic_error("ZeroPages: carve beyond the mapping");
  }
  void* p = base_ + used_;
  used_ += take;
  return p;
}

std::size_t SectoredCache::state_bytes(const CacheGeometry& geometry) {
  // Must match the carve sequence in bind().
  const Shape shape = shape_of(geometry);
  const std::size_t ways = static_cast<std::size_t>(shape.sets) * shape.ways;
  const auto sized = ZeroPages::carved_size;
  return 2 * sized(ways * sizeof(std::uint64_t)) +        // tags, stamps
         sized(ways * sizeof(std::uint32_t)) +            // masks
         2 * sized(shape.sets * sizeof(std::uint32_t)) +  // hints, touched
         sized(shape.sets * sizeof(std::uint64_t));       // touch marks
}

SectoredCache::SectoredCache(const CacheGeometry& geometry)
    : geometry_(geometry), own_pages_(state_bytes(geometry)) {
  bind(own_pages_);
}

SectoredCache::SectoredCache(const CacheGeometry& geometry, ZeroPages& pages)
    : geometry_(geometry) {
  bind(pages);
}

void SectoredCache::bind(ZeroPages& pages) {
  const Shape shape = shape_of(geometry_);
  num_sets_ = shape.sets;
  ways_per_set_ = shape.ways;
  sectors_per_line_ = geometry_.line_bytes / geometry_.sector_bytes;
  const std::size_t total = static_cast<std::size_t>(num_sets_) * ways_per_set_;
  const auto carve = [&pages]<typename T>(T*& array, std::size_t count) {
    array = static_cast<T*>(pages.carve(count * sizeof(T)));
  };
  carve(tags_, total);
  carve(stamps_, total);
  carve(masks_, total);
  carve(hints_, num_sets_);
  carve(touched_, num_sets_);
  carve(touch_marks_, num_sets_);

  if (std::has_single_bit(geometry_.line_bytes)) {
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.line_bytes));
  }
  if (std::has_single_bit(geometry_.sector_bytes)) {
    sector_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.sector_bytes));
  }
  if (std::has_single_bit(num_sets_)) {
    set_mask_ = num_sets_ - 1;
  }
  sets_inv_ = 1.0 / static_cast<double>(num_sets_);
}

CacheAccess SectoredCache::peek(std::uint64_t address) const {
  const std::uint64_t line = line_of(address);
  const std::uint32_t set = set_of(line);
  const std::uint32_t sector = sector_of(address);
  CacheAccess result;
  const std::size_t base = static_cast<std::size_t>(set) * ways_per_set_;
  for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
    if (tags_[base + w] == line + 1) {
      result.line_hit = true;
      result.sector_hit = (masks_[base + w] >> sector) & 1u;
      break;
    }
  }
  return result;
}

void SectoredCache::flush() {
  // Stamps must be zeroed too: access() relies on empty ways carrying
  // stamp 0 so the victim scan can be a pure minimum search. Masks of empty
  // ways are never read before the way is refilled. Stale hints are safe
  // (the hinted way's tag simply won't match).
  enlisted_ = false;
  if (touched_count_ == 0) {
    stamp_ = 0;
    return;
  }
  if (touched_count_ >= num_sets_ / 2) {
    // Dense: a contiguous fill beats scattered per-set clears once about
    // half the sets are dirty.
    const std::size_t total =
        static_cast<std::size_t>(num_sets_) * ways_per_set_;
    std::fill(tags_, tags_ + total, kInvalidTag);
    std::fill(stamps_, stamps_ + total, 0);
  } else {
    for (std::uint32_t i = 0; i < touched_count_; ++i) {
      const std::size_t base =
          static_cast<std::size_t>(touched_[i]) * ways_per_set_;
      std::fill(tags_ + base, tags_ + base + ways_per_set_, kInvalidTag);
      std::fill(stamps_ + base, stamps_ + base + ways_per_set_, 0);
    }
  }
  touched_count_ = 0;
  ++generation_;
  stamp_ = 0;
}

void SectoredCache::capture_rows(CacheSnapshot& out) const {
  const std::size_t rows = out.sets.size();
  out.tags.resize(rows * ways_per_set_);
  out.masks.resize(rows * ways_per_set_);
  out.stamps.resize(rows * ways_per_set_);
  out.hints.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t src = static_cast<std::size_t>(out.sets[i]) *
                            ways_per_set_;
    const std::size_t dst = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      out.tags[dst + w] = tags_[src + w];
      out.masks[dst + w] = masks_[src + w];
      out.stamps[dst + w] = stamps_[src + w];
    }
    out.hints[i] = hints_[out.sets[i]];
  }
  out.stamp = stamp_;
  out.hits = hits_;
  out.misses = misses_;
}

void SectoredCache::snapshot(CacheSnapshot& out) const {
  out.clear();
  out.sets.assign(touched_, touched_ + touched_count_);
  capture_rows(out);
}

void SectoredCache::snapshot_addresses(std::uint64_t base, std::uint64_t stride,
                                       std::uint64_t steps,
                                       CacheSnapshot& out) const {
  out.clear();
  out.sets.reserve(steps);
  for (std::uint64_t i = 0; i < steps; ++i) {
    out.sets.push_back(set_of(line_of(base + i * stride)));
  }
  std::sort(out.sets.begin(), out.sets.end());
  out.sets.erase(std::unique(out.sets.begin(), out.sets.end()),
                 out.sets.end());
  capture_rows(out);
}

void SectoredCache::restore(const CacheSnapshot& snap) {
  const std::size_t rows = snap.sets.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t set = snap.sets[i];
    const std::size_t dst = static_cast<std::size_t>(set) * ways_per_set_;
    const std::size_t src = i * ways_per_set_;
    for (std::uint32_t w = 0; w < ways_per_set_; ++w) {
      tags_[dst + w] = snap.tags[src + w];
      masks_[dst + w] = snap.masks[src + w];
      stamps_[dst + w] = snap.stamps[src + w];
    }
    hints_[set] = snap.hints[i];
    // Keep the touched-set invariant: a restored set is dirty relative to a
    // flushed cache, so the next flush must clear it.
    mark_touched(set);
  }
  stamp_ = snap.stamp;
  hits_ = snap.hits;
  misses_ = snap.misses;
}

}  // namespace mt4g::sim
