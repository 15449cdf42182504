#include "exp/population_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>

#include "exp/sweep_engine.hpp"
#include "exp/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pcs {

void PopulationGridSpec::validate() const {
  auto no_dups = [](const auto& axis, const char* what) {
    auto sorted = axis;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument(std::string("population grid ") + what +
                                  " axis has duplicate values");
    }
  };
  if (sizes_kb.empty()) {
    throw std::invalid_argument("population grid sizes_kb axis is empty");
  }
  if (assocs.empty()) {
    throw std::invalid_argument("population grid assocs axis is empty");
  }
  no_dups(sizes_kb, "sizes_kb");
  no_dups(assocs, "assocs");
  no_dups(sigmas, "sigmas");
  for (const Volt s : sigmas) {
    if (!std::isfinite(s) || !(s > 0.0)) {
      throw std::invalid_argument(
          "population grid sigmas must be finite and positive");
    }
  }
  for (const u64 size_kb : sizes_kb) {
    if (size_kb > kMaxSizeKb) {
      throw std::invalid_argument(
          "population grid sizes_kb item " + std::to_string(size_kb) +
          " KB overflows a 64-bit byte count");
    }
    for (const u32 assoc : assocs) {
      org_for(size_kb, assoc).validate();
    }
  }
}

std::vector<Volt> PopulationGridSpec::sigma_axis(Volt fallback_sigma) const {
  if (sigmas.empty()) return {fallback_sigma};
  return sigmas;
}

CacheOrg PopulationGridSpec::org_for(u64 size_kb, u32 assoc) const {
  CacheOrg org = base.org;
  org.size_bytes = size_kb * 1024;
  org.assoc = assoc;
  return org;
}

PopulationSpec PopulationGridSpec::point_spec(u64 size_kb, u32 assoc) const {
  PopulationSpec spec = base;
  spec.org = org_for(size_kb, assoc);
  return spec;
}

PopulationGridEngine::PopulationGridEngine(const BerModel& ber,
                                           u32 num_threads)
    : ber_(&ber),
      num_threads_(num_threads == 0 ? pcs_thread_count() : num_threads) {}

namespace {

std::string grid_canonical(const PopulationGridSpec& spec, Volt mu,
                           const std::vector<Volt>& sigmas) {
  const PopulationSpec& b = spec.base;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "population-grid|v1|mu=%.17g|block=%u|phys=%u|chips=%llu|"
                "seed=%llu|lo=%.17g|hi=%.17g|step=%.17g|mincap=%.17g|"
                "shard=%llu",
                mu, b.org.block_bytes, b.org.phys_addr_bits,
                static_cast<unsigned long long>(b.num_chips),
                static_cast<unsigned long long>(b.seed), b.grid_lo, b.grid_hi,
                b.grid_step, b.spcs_min_capacity,
                static_cast<unsigned long long>(b.chips_per_shard));
  std::string canon = buf;
  canon += "|sizes_kb=";
  for (const u64 s : spec.sizes_kb) {
    std::snprintf(buf, sizeof buf, "%llu,", static_cast<unsigned long long>(s));
    canon += buf;
  }
  canon += "|assocs=";
  for (const u32 a : spec.assocs) {
    std::snprintf(buf, sizeof buf, "%u,", a);
    canon += buf;
  }
  canon += "|sigmas=";
  for (const Volt s : sigmas) {
    std::snprintf(buf, sizeof buf, "%.17g,", s);
    canon += buf;
  }
  return canon;
}

}  // namespace

PopulationGridResult PopulationGridEngine::run(
    const PopulationGridSpec& spec, TraceSink* trace,
    const CheckpointOptions* ckpt) const {
  spec.validate();
  const PopulationSpec& base = spec.base;
  const std::vector<Volt> grid = base.grid();
  const std::vector<Volt> sigmas = spec.sigma_axis(ber_->sigma());
  const double mu = ber_->mu();
  const std::size_t num_sizes = spec.sizes_kb.size();
  const std::size_t num_assocs = spec.assocs.size();
  const std::size_t num_sigmas = sigmas.size();
  const std::size_t num_points = num_sizes * num_assocs * num_sigmas;
  const auto point_index = [&](std::size_t si, std::size_t ai,
                               std::size_t gi) {
    return (si * num_assocs + ai) * num_sigmas + gi;
  };

  // Sizes are visited in ascending block order so each size's fault
  // histogram extends the previous one's (count_fail_rungs is additive and
  // the draw sequence of a smaller cache is a prefix of a larger one's).
  std::vector<u64> blocks_of(num_sizes);
  for (std::size_t si = 0; si < num_sizes; ++si) {
    blocks_of[si] = spec.org_for(spec.sizes_kb[si], spec.assocs[0])
                        .num_blocks();
  }
  std::vector<std::size_t> size_order(num_sizes);
  std::iota(size_order.begin(), size_order.end(), std::size_t{0});
  std::sort(size_order.begin(), size_order.end(),
            [&](std::size_t a, std::size_t b) {
              return blocks_of[a] < blocks_of[b];
            });
  const u64 max_blocks = blocks_of[size_order.back()];
  const u32 num_levels = static_cast<u32>(grid.size());
  // One cut table per sigma (validates mu and every sigma), built once per
  // run; the shards only read them.
  std::vector<RungCuts> cuts;
  cuts.reserve(num_sigmas);
  for (const Volt sigma : sigmas) {
    cuts.emplace_back(grid, mu, sigma, base.org.bits_per_block());
  }

  const u64 per_shard = std::max<u64>(1, base.chips_per_shard);
  const u64 num_shards =
      base.num_chips == 0 ? 0
                          : (base.num_chips + per_shard - 1) / per_shard;

  const auto empty_parts = [&] {
    std::vector<PopulationResult> parts;
    parts.reserve(num_points);
    for (std::size_t p = 0; p < num_points; ++p) {
      parts.push_back(make_empty_population_result(grid));
    }
    return parts;
  };

  std::vector<PopulationResult> merged = empty_parts();
  const bool checkpointing = ckpt != nullptr && !ckpt->path.empty();
  const u64 fp = checkpointing ? population_fingerprint(
                                     grid_canonical(spec, mu, sigmas))
                               : 0;
  u64 start_shard = 0;
  if (checkpointing && ckpt->resume) {
    u64 done = 0;
    std::vector<PopulationResult> loaded = empty_parts();
    if (try_load_population_checkpoint(ckpt->path, fp, done, loaded,
                                       ckpt->strict_resume)) {
      if (done > num_shards) {
        if (ckpt->strict_resume) {
          throw std::runtime_error("population checkpoint '" + ckpt->path +
                                   "': watermark past the end of the run");
        }
        std::fprintf(stderr,
                     "pcs: checkpoint sidecar rejected, starting fresh: "
                     "watermark past the end of the run\n");
      } else {
        start_shard = done;
        merged = std::move(loaded);
      }
    }
  }

  // One shard: draw each die once at the LARGEST size and bucket its blocks
  // once per sigma; every grid point then comes from the shared buckets.
  // Bit-identity argument: a block's bucket under cuts[gi] equals
  //   upper_bound(grid, sample_fast's vf) at (mu, sigmas[gi]) (RungCuts),
  // the first blocks(size) draws are exactly the smaller cache's draw
  // sequence, and the histogram/fold/binning steps are the standalone
  // engine's own (count_buckets / RungCuts::floor_bucket /
  // bin_from_floor_bucket).
  const auto shard_task = [&](u64 s) {
    std::vector<PopulationResult> parts = empty_parts();
    std::vector<u64> draws(static_cast<std::size_t>(max_blocks));
    std::vector<u16> buckets(static_cast<std::size_t>(max_blocks));
    std::vector<u64> rungs(num_levels + 2, 0);
    std::vector<u64> faulty_at(num_levels + 2, 0);
    const u64 first = s * per_shard;
    const u64 end = std::min(base.num_chips, first + per_shard);
    for (u64 c = first; c < end; ++c) {
      Rng rng(derive_seed(base.seed, 0, c));
      rng.uniform_bits_block(draws);
      for (std::size_t gi = 0; gi < num_sigmas; ++gi) {
        cuts[gi].bucket_draws(draws, buckets);
        std::fill(rungs.begin(), rungs.end(), u64{0});
        u64 prev_blocks = 0;
        for (const std::size_t si : size_order) {
          const u64 blocks = blocks_of[si];
          const auto prefix = std::span<const u16>(buckets).first(
              static_cast<std::size_t>(blocks));
          count_buckets(prefix.subspan(static_cast<std::size_t>(prev_blocks)),
                        rungs);
          prev_blocks = blocks;
          faulty_at[num_levels + 1] = rungs[num_levels + 1];
          for (u32 l = num_levels; l >= 1; --l) {
            faulty_at[l] = rungs[l] + faulty_at[l + 1];
          }
          for (std::size_t ai = 0; ai < num_assocs; ++ai) {
            accumulate_chip(
                parts[point_index(si, ai, gi)],
                bin_from_floor_bucket(
                    cuts[gi].floor_bucket(prefix, spec.assocs[ai]),
                    faulty_at, blocks, num_levels, base.spcs_min_capacity));
          }
        }
      }
    }
    return parts;
  };
  run_population_shards(
      num_threads_, start_shard, num_shards, ckpt, shard_task,
      [&](u64 /*s*/, const std::vector<PopulationResult>& parts) {
        for (std::size_t p = 0; p < num_points; ++p) {
          merged[p].merge(parts[p]);
        }
      },
      [&](u64 done) {
        save_population_checkpoint(
            ckpt->path, fp, done,
            std::span<const PopulationResult>(merged.data(), merged.size()));
      });

  PopulationGridResult result;
  result.points.reserve(num_points);
  for (std::size_t si = 0; si < num_sizes; ++si) {
    for (std::size_t ai = 0; ai < num_assocs; ++ai) {
      for (std::size_t gi = 0; gi < num_sigmas; ++gi) {
        PopulationGridPointResult point;
        point.size_kb = spec.sizes_kb[si];
        point.assoc = spec.assocs[ai];
        point.sigma = sigmas[gi];
        point.result = std::move(merged[point_index(si, ai, gi)]);
        result.points.push_back(std::move(point));
      }
    }
  }

  if (trace != nullptr) {
    // Deterministic section: one record per point, in point order, from the
    // final merged histograms (identical for fresh and resumed runs).
    for (std::size_t p = 0; p < result.points.size(); ++p) {
      const PopulationGridPointResult& pt = result.points[p];
      trace->emit(TraceRecord("population_grid_point")
                      .field("point", static_cast<u64>(p))
                      .field("size_kb", pt.size_kb)
                      .field("assoc", pt.assoc)
                      .field("sigma", pt.sigma)
                      .field("chips", pt.result.num_chips)
                      .field("unusable", pt.result.unusable)
                      .field("no_spcs", pt.result.no_spcs));
    }
  }
  return result;
}

void render_population_grid_report(const PopulationGridSpec& spec,
                                   const PopulationGridResult& result,
                                   std::ostream& out) {
  const PopulationSpec& base = spec.base;
  char line[256];
  // chips_per_shard and thread count are deliberately absent: the grid
  // report must be shard- and thread-invariant byte for byte.
  std::snprintf(line, sizeof line,
                "population grid: %zu points (%zu sizes x %zu assocs x %zu "
                "sigmas), %s dies each\n(seed %llu, grid %.3f..%.3f V step "
                "%.3f, SPCS target %.0f%%)\n\n",
                result.points.size(), spec.sizes_kb.size(),
                spec.assocs.size(),
                result.points.size() /
                    (spec.sizes_kb.size() * spec.assocs.size()),
                fmt_count(base.num_chips).c_str(),
                static_cast<unsigned long long>(base.seed), base.grid_lo,
                base.grid_hi, base.grid_step, base.spcs_min_capacity * 100.0);
  out << line;

  TextTable table({"size (KB)", "ways", "sigma", "yield", "floor p50 (V)",
                   "floor p99 (V)", "SPCS p50 (V)", "unusable", "no SPCS"});
  for (const PopulationGridPointResult& pt : result.points) {
    const PopulationResult& r = pt.result;
    const double yield =
        r.num_chips == 0 ? 0.0
                         : static_cast<double>(r.usable()) /
                               static_cast<double>(r.num_chips);
    table.add_row({fmt_count(pt.size_kb), fmt_count(pt.assoc),
                   fmt_fixed(pt.sigma, 4), fmt_pct(yield, 2),
                   fmt_fixed(r.quantile_vdd(r.floor_hist, 0.5), 3),
                   fmt_fixed(r.quantile_vdd(r.floor_hist, 0.99), 3),
                   fmt_fixed(r.quantile_vdd(r.spcs_hist, 0.5), 3),
                   fmt_count(r.unusable), fmt_count(r.no_spcs)});
  }
  table.print(out);

  out << "\neach point is bit-identical to a standalone chip_binning run of "
         "that (size, ways, sigma);\nthe grid engine manufactures the fleet "
         "once and reuses the draws across every point.\n";
}

}  // namespace pcs
