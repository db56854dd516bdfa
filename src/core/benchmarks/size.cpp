#include "core/benchmarks/size.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <stdexcept>

#include "common/units.hpp"
#include "runtime/batch.hpp"
#include "stats/change_point.hpp"
#include "stats/descriptive.hpp"
#include "stats/outlier.hpp"
#include "stats/reduction.hpp"

namespace mt4g::core {
namespace {

struct Runner {
  sim::Gpu& gpu;
  const SizeBenchOptions& options;
  std::uint64_t base;
  runtime::ReplicaPool& pool;
  std::uint64_t cycles = 0;
  std::uint32_t exact_chases = 0;
  /// Prefix-fits verdict of every sweep row measured so far (size -> did all
  /// recorded loads stay within the tracked element). Feeds the phase-6
  /// bound seeding; only an approximation of the full-pass predicate, so
  /// phase 6 verifies every seed before trusting it.
  std::map<std::uint64_t, bool> sweep_fits;

  runtime::ChaseBatchOptions batch_options() const {
    runtime::ChaseBatchOptions batch;
    batch.threads = options.sweep_threads;
    batch.executor = options.sweep_executor;
    batch.pool = &pool;
    return batch;
  }

  /// @param full_pass phase-6 `fits` chases need the whole timed pass for
  ///        the exact served_by classification; everything else consumes
  ///        only the recorded prefix and caps the pass at the record budget.
  runtime::PChaseConfig config_for(std::uint64_t array_bytes,
                                   bool full_pass,
                                   std::uint32_t resample = 0) const {
    runtime::PChaseConfig config;
    config.space = options.target.space;
    config.flags = options.target.flags;
    config.base = base;
    config.array_bytes = array_bytes;
    config.stride_bytes = options.stride;
    config.record_count = options.record_count;
    config.warmup = true;
    config.where = options.where;
    config.max_timed_steps = full_pass ? 0 : options.record_count;
    config.resample = resample;
    return config;
  }

  runtime::PChaseResult chase(const runtime::PChaseConfig& config) {
    const runtime::ChaseSpec spec = runtime::ChaseSpec::plain(config);
    auto results =
        runtime::run_chase_batch(gpu, std::span(&spec, 1), batch_options());
    cycles += results[0].total_cycles;
    return std::move(results[0]);
  }

  /// Median recorded latency of one run — the jump detector for phase 1/2.
  double median_latency(std::uint64_t array_bytes) {
    const auto result = chase(config_for(array_bytes, /*full_pass=*/false));
    return stats::summarize(
               std::span<const std::uint32_t>(result.latencies))
        .p50;
  }

  /// Exact predicate: did every timed load stay within the tracked element?
  bool fits(std::uint64_t array_bytes) {
    ++exact_chases;
    const auto result = chase(config_for(array_bytes, /*full_pass=*/true));
    return hit_fraction(result, options.target.element) >= 0.999;
  }

  /// Bisection tree levels one lookahead round covers: with P sweep threads
  /// the 2^k - 1 midpoints of the next k levels run at once, k =
  /// floor(log2(P + 1)). Below two levels a round would run only the walk's
  /// own next chase, so nothing is prefetched (P <= 2).
  std::uint32_t lookahead_levels() const {
    const auto k = static_cast<std::uint32_t>(
        std::bit_width(std::uint64_t{options.sweep_threads} + 1) - 1);
    return k >= 2 ? k : 0;
  }

  /// Runs the chases of @p sizes ahead of time, off the books, into the
  /// pool's prefetch table; the previous round's unused results are
  /// dropped.
  void prefetch(const std::vector<std::uint64_t>& sizes, bool full_pass) {
    std::vector<runtime::ChaseSpec> specs;
    for (const std::uint64_t size : sizes) {
      specs.push_back(runtime::ChaseSpec::plain(config_for(size, full_pass)));
    }
    runtime::prefetch_chases(gpu, specs, batch_options());
  }

  std::uint64_t midpoint(std::uint64_t lo, std::uint64_t hi) const {
    return round_down(lo + (hi - lo) / 2, options.stride);
  }

  /// The midpoints the walk over (lo, hi) may chase in its next @p levels.
  void collect_midpoints(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t span, std::uint32_t levels,
                         std::vector<std::uint64_t>& out) const {
    if (levels == 0 || hi - lo <= span) return;
    const std::uint64_t mid = midpoint(lo, hi);
    if (mid <= lo || mid >= hi) return;
    out.push_back(mid);
    collect_midpoints(lo, mid, span, levels - 1, out);
    collect_midpoints(mid, hi, span, levels - 1, out);
  }

  /// Binary search on stride multiples, shared by phases 1b and 6: narrows
  /// (lo, hi) until it spans at most @p span, moving lo up where
  /// @p below(mid) holds and hi down elsewhere. The walk is serial and books
  /// exactly its own chases; with lookahead, each level whose midpoint was
  /// not prefetched first runs the midpoints of the next levels in
  /// parallel, so the serial calls below commit from the prefetch table.
  template <typename Below>
  void bisect(std::uint64_t& lo, std::uint64_t& hi, std::uint64_t span,
              bool full_pass, Below below) {
    const std::uint32_t levels = lookahead_levels();
    while (hi - lo > span) {
      const std::uint64_t mid = midpoint(lo, hi);
      if (mid <= lo || mid >= hi) break;
      if (levels > 0 &&
          !runtime::is_prefetched(
              gpu, pool,
              runtime::ChaseSpec::plain(config_for(mid, full_pass)))) {
        std::vector<std::uint64_t> sizes;
        collect_midpoints(lo, hi, span, levels, sizes);
        prefetch(sizes, full_pass);
      }
      if (below(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    pool.prefetched.clear();  // the last round's off-path results
  }
};

}  // namespace

SizeBenchResult run_size_benchmark(sim::Gpu& gpu,
                                   const SizeBenchOptions& options) {
  if (options.stride == 0 || options.lower == 0 ||
      options.upper <= options.lower) {
    throw std::invalid_argument("size benchmark: bad search bounds");
  }
  SizeBenchResult out;
  const std::uint64_t lower = round_up(options.lower, options.stride);
  const std::uint64_t upper = round_up(options.upper, options.stride);
  runtime::ReplicaPool local_pool;
  Runner runner{gpu, options, gpu.alloc(upper + options.stride, 256),
                options.chase_pool ? *options.chase_pool : local_pool};

  // --- Phase 1: exponential doubling until the latency jumps. --------------
  const double base_latency = runner.median_latency(lower);
  const double jump_threshold = std::max(base_latency * 1.4,
                                         base_latency + 10.0);
  std::uint64_t lo = lower;
  std::uint64_t hi = 0;
  for (std::uint64_t size = lower * 2; size <= upper; size *= 2) {
    if (runner.median_latency(size) > jump_threshold) {
      hi = size;
      break;
    }
    lo = size;
  }
  if (hi == 0) {
    // Check the upper bound itself (the doubling may overshoot it).
    if (lo < upper && runner.median_latency(upper) > jump_threshold) {
      hi = upper;
    } else {
      out.upper_bound_hit = true;
      out.cycles = runner.cycles;
      out.exact_chases = runner.exact_chases;
      return out;
    }
  }

  // --- Phase 1b: binary-search narrowing to bound the sweep cost. ----------
  const std::uint64_t target_span =
      std::max<std::uint64_t>(static_cast<std::uint64_t>(options.stride) *
                                  options.max_sweep_points,
                              hi / 16);
  runner.bisect(lo, hi, target_span, /*full_pass=*/false,
                [&](std::uint64_t mid) {
                  return runner.median_latency(mid) <= jump_threshold;
                });

  // --- Phases 2-4: sweep, outlier screening (with widening), K-S. ----------
  //
  // Incremental engine: rows are cached by array size and the step is
  // frozen at the initial span, so a widening extends the same size grid and
  // only the newly exposed edge points (plus spike-flagged points, which get
  // fresh data via a bumped resample index) are measured — every clean row
  // is reused. Chases go through run_chase_batch: each runs on a reset
  // replica with a (seed, spec) noise stream, making the series invariant
  // under sweep_threads, and sizes already chased in an earlier phase or
  // sweep are answered from the chase memo at zero cycles.
  //
  // `refreshed` spans the coarse and refinement sweeps: a point re-measured
  // once keeps its bumped resample index, so a later sweep that re-requests
  // it reuses the fresh data instead of resurrecting the spiky original.
  std::set<std::uint64_t> refreshed;  // re-measured once (resample == 1)
  auto sweep_and_detect =
      [&](std::uint64_t sweep_lo, std::uint64_t sweep_hi,
          std::uint32_t max_points,
          SizeBenchResult& result) -> std::optional<stats::ChangePoint> {
    const std::uint64_t step = std::max<std::uint64_t>(
        options.stride,
        round_up((sweep_hi - sweep_lo) / std::max<std::uint32_t>(max_points, 1),
                 options.stride));
    std::map<std::uint64_t, std::vector<std::uint32_t>> rows;
    std::set<std::uint64_t> respike;    // erased as spiked, awaiting fresh data
    for (std::uint32_t attempt = 0;; ++attempt) {
      std::vector<std::uint64_t> sizes;
      for (std::uint64_t size = sweep_lo; size <= sweep_hi; size += step) {
        sizes.push_back(size);
      }
      std::vector<std::uint64_t> missing;
      for (const std::uint64_t size : sizes) {
        if (!rows.count(size)) missing.push_back(size);
      }
      if (!missing.empty()) {
        std::vector<runtime::ChaseSpec> specs;
        specs.reserve(missing.size());
        for (const std::uint64_t size : missing) {
          specs.push_back(runtime::ChaseSpec::plain(runner.config_for(
              size, /*full_pass=*/false,
              /*resample=*/refreshed.count(size) ? 1 : 0)));
        }
        auto measured = runtime::run_chase_batch(gpu, specs,
                                                 runner.batch_options());
        for (std::size_t i = 0; i < missing.size(); ++i) {
          runner.cycles += measured[i].total_cycles;
          result.sweep_cycles += measured[i].total_cycles;
          runner.sweep_fits[missing[i]] =
              hit_fraction(measured[i], options.target.element) >= 0.999;
          if (options.sweep_probe && !measured[i].from_cache) {
            options.sweep_probe(missing[i], respike.erase(missing[i]) > 0);
          }
          rows.emplace(missing[i], std::move(measured[i].latencies));
        }
      }
      std::vector<std::vector<std::uint32_t>> ordered;
      ordered.reserve(sizes.size());
      for (const std::uint64_t size : sizes) ordered.push_back(rows.at(size));
      const std::vector<double> reduced = stats::geometric_reduction(ordered);
      const auto screen = stats::screen_outliers(reduced);
      if (!screen.clean() && attempt < options.max_widenings) {
        bool changed = false;
        for (const std::size_t idx : screen.spike_indices) {
          // One fresh measurement per point: a point that stays spiky on its
          // second sample is genuine structure (or persistent disturbance);
          // despike() below neutralises it for the K-S either way, so
          // chasing it a third time buys nothing.
          if (!refreshed.insert(sizes[idx]).second) continue;
          respike.insert(sizes[idx]);
          rows.erase(sizes[idx]);
          changed = true;
        }
        // Widen on the frozen grid so existing rows stay reusable; the
        // clamped extension never leaves [lower, upper].
        if (screen.change_at_lower_edge && sweep_lo > lower) {
          const std::uint64_t room = (sweep_lo - lower) / step;
          sweep_lo -= std::min<std::uint64_t>(4, room) * step;
          changed = changed || room > 0;
        }
        if (screen.change_at_upper_edge && sweep_hi < upper) {
          const std::uint64_t room = (upper - sweep_hi) / step;
          sweep_hi += std::min<std::uint64_t>(4, room) * step;
          changed = changed || room > 0;
        }
        if (changed) {
          ++result.widenings;
          continue;
        }
        // Edges pinned at the search bounds and nothing flagged as a spike:
        // re-running would reproduce the identical series, so fall through
        // to detection with what we have.
      }
      const std::vector<double> clean = stats::despike(reduced);
      result.sweep_sizes = sizes;
      result.reduced = reduced;
      return stats::find_change_point(clean);
    }
  };

  auto change_point = sweep_and_detect(lo, hi, options.max_sweep_points, out);
  if (!change_point || change_point->index == 0) {
    out.cycles = runner.cycles;
    out.exact_chases = runner.exact_chases;
    return out;
  }
  out.found = true;
  out.detected_bytes = out.sweep_sizes[change_point->index - 1];
  out.confidence = change_point->confidence;

  // --- Phase 5: refinement sweep around the change point. ------------------
  const std::uint64_t coarse_step =
      out.sweep_sizes.size() > 1 ? out.sweep_sizes[1] - out.sweep_sizes[0]
                                 : options.stride;
  if (coarse_step > options.stride) {
    const std::uint64_t window_lo =
        out.detected_bytes > 2 * coarse_step + lower
            ? out.detected_bytes - 2 * coarse_step
            : lower;
    const std::uint64_t window_hi =
        std::min(upper, out.detected_bytes + 2 * coarse_step);
    SizeBenchResult refine;
    const auto refined = sweep_and_detect(window_lo, window_hi,
                                          options.refine_sweep_points, refine);
    out.widenings += refine.widenings;
    out.sweep_cycles += refine.sweep_cycles;
    if (refined && refined->index > 0) {
      out.detected_bytes = refine.sweep_sizes[refined->index - 1];
      out.confidence = std::max(out.confidence, refined->confidence);
      // Keep the coarse sweep as the reported series (it shows the full
      // cliff, like Fig. 2); the refinement only sharpens the boundary.
    }
  }

  // --- Phase 6: exact boundary via bisection on the fall-through predicate.
  {
    // The sweep rows already bracket the boundary: seed the bisection with
    // the nearest measured fitting size at or below the estimate and the
    // nearest measured missing size above it. The seeds come from recorded
    // prefixes, so both are verified with full-pass chases — the expansion
    // loops below remain as the fallback when a seed lied. Without seeding
    // (or without usable rows) the walk expands outward in coarse steps
    // first (the K-S estimate can be off by a sweep step), then bisects at
    // fetch-granularity resolution. The lower expansion must be able to
    // reach `lower` itself — the cache size can coincide with the search
    // bound (e.g. a 1 KiB cache probed from 1 KiB).
    const std::uint64_t expand = std::max<std::uint64_t>(
        coarse_step, static_cast<std::uint64_t>(options.stride));
    std::uint64_t fit_lo = out.detected_bytes;
    std::uint64_t miss_hi = 0;
    if (options.phase6_bounds_from_sweep) {
      std::uint64_t seed_lo = 0;
      for (const auto& [size, prefix_fits] : runner.sweep_fits) {
        if (prefix_fits && size <= out.detected_bytes && size > seed_lo) {
          seed_lo = size;
        } else if (!prefix_fits && size > out.detected_bytes &&
                   (miss_hi == 0 || size < miss_hi)) {
          miss_hi = size;
        }
      }
      if (seed_lo != 0) fit_lo = seed_lo;
    }
    // The upper seed to verify once fit_lo is known to fit.
    const auto miss_seed = [&] {
      return miss_hi > fit_lo
                 ? miss_hi
                 : std::max(out.detected_bytes, fit_lo + options.stride);
    };
    if (runner.lookahead_levels() > 0) {
      // Verify both seeds at once, assuming the lower one holds.
      std::vector<std::uint64_t> verify{fit_lo};
      if (miss_seed() < upper) verify.push_back(miss_seed());
      runner.prefetch(verify, /*full_pass=*/true);
    }
    // Expansion steps double: when the sweep window missed the boundary
    // entirely (a late phase-1 jump), a fixed coarse step would crawl over
    // the gap chase by chase; doubling reaches any distance in O(log)
    // chases and the bisection below recovers the precision.
    bool fit_lo_ok = runner.fits(fit_lo);
    for (std::uint64_t step = expand; !fit_lo_ok && fit_lo > lower;
         step *= 2) {
      fit_lo = fit_lo > lower + step ? fit_lo - step : lower;
      fit_lo_ok = runner.fits(fit_lo);
    }
    if (!fit_lo_ok) {
      // No size fits, down to and including `lower`: the K-S saw a latency
      // cliff of a deeper level (or noise), not this element's boundary.
      // Reporting `lower` would fabricate a fit that was never observed;
      // keep the change-point estimate and flag the condition.
      out.exact_bytes = out.detected_bytes;
      out.exact_fallback = true;
      out.cycles = runner.cycles;
      out.exact_chases = runner.exact_chases;
      return out;
    }
    miss_hi = miss_seed();
    for (std::uint64_t step = expand; miss_hi < upper && runner.fits(miss_hi);
         step *= 2) {
      miss_hi = std::min(upper, miss_hi + step);
    }
    // Invariant: fits(fit_lo) && !fits(miss_hi); bisect on stride multiples.
    runner.bisect(fit_lo, miss_hi, options.stride, /*full_pass=*/true,
                  [&](std::uint64_t mid) { return runner.fits(mid); });
    out.exact_bytes = fit_lo;
  }

  out.cycles = runner.cycles;
  out.exact_chases = runner.exact_chases;
  return out;
}

}  // namespace mt4g::core
