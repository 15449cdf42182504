#include "exp/population_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>

#include "exp/thread_pool.hpp"
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
      try {
        org_for(size_kb, assoc).validate();
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(
            "population grid sizes_kb item " + std::to_string(size_kb) +
            " KB with assocs item " + std::to_string(assoc) + ": " +
            e.what());
      }
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
  const std::vector<Volt> sigmas = spec.sigma_axis(ber_->sigma());
  // Points in report order: size-major, then assoc, then sigma.
  std::vector<FleetPoint> points;
  PopulationGridResult result;
  for (const u64 size_kb : spec.sizes_kb) {
    for (const u32 assoc : spec.assocs) {
      for (const Volt sigma : sigmas) {
        points.push_back({spec.org_for(size_kb, assoc).num_blocks(), assoc,
                          sigma});
        result.points.push_back({size_kb, assoc, sigma, {}});
      }
    }
  }
  std::vector<PopulationResult> merged = run_fleet(
      spec.base, points, ber_->mu(), num_threads_,
      population_fingerprint(grid_canonical(spec, ber_->mu(), sigmas)), ckpt,
      nullptr);
  for (std::size_t p = 0; p < points.size(); ++p) {
    result.points[p].result = std::move(merged[p]);
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
