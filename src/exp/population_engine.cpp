#include "exp/population_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/sweep_engine.hpp"
#include "exp/thread_pool.hpp"
#include "tech/leakage_model.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pcs {

namespace {

void require_finite(Volt v, const char* field) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("population ") + field +
                                " must be finite");
  }
}

}  // namespace

std::vector<Volt> PopulationSpec::grid() const {
  // Job lines set these fields, so nothing is allocated until they pass.
  require_finite(grid_lo, "grid_lo");
  require_finite(grid_hi, "grid_hi");
  require_finite(grid_step, "grid_step");
  if (grid_step <= 0.0) {
    throw std::invalid_argument("population grid_step must be positive");
  }
  // Half-step tolerance so the accumulated sum still lands on grid_hi. The
  // levels are counted before the ladder is built, and the count stops at
  // the cap, so a step too small to move the sum ends here too.
  const Volt top = grid_hi + grid_step * 0.5;
  std::size_t levels = 0;
  for (Volt v = grid_lo; v <= top; v += grid_step) {
    if (++levels > kMaxPopulationLevels) {
      throw std::invalid_argument(
          "population grid_lo..grid_hi at grid_step has more than " +
          std::to_string(kMaxPopulationLevels) + " levels");
    }
  }
  if (levels == 0) {
    throw std::invalid_argument("population grid is empty (grid_lo > grid_hi)");
  }
  std::vector<Volt> g;
  g.reserve(levels);
  for (Volt v = grid_lo; v <= top; v += grid_step) g.push_back(v);
  return g;
}

ChipBinPoint bin_chip(const CellFaultField& field, const CacheOrg& org,
                      std::span<const Volt> grid, double min_capacity) {
  // One scalar encodes the die's viability at every ladder voltage: level l
  // is viable iff grid[l-1] > vf_chip (max over sets of min over ways).
  const float vf_chip = chip_fail_voltage(field, org);
  if (std::upper_bound(grid.begin(), grid.end(),
                       static_cast<Volt>(vf_chip)) == grid.end()) {
    return {};  // unusable: faulty even at the top level; skip the histogram
  }

  // Per-level faulty counts in one O(blocks) pass. (The field's sweep index
  // would answer the same queries, but its std::sort over a fresh random
  // permutation per die costs many times this pass; counts are integers
  // either way, so the results are bit-identical.)
  const u32 n = static_cast<u32>(grid.size());
  std::vector<u64> faulty_at(n + 2, 0);
  count_fail_rungs(field.fail_voltages(), grid, faulty_at);
  for (u32 l = n; l >= 1; --l) faulty_at[l] += faulty_at[l + 1];
  return bin_from_fail_summary(vf_chip, faulty_at, field.num_blocks(), grid,
                               min_capacity);
}

void count_fail_rungs(std::span<const float> vf, std::span<const Volt> grid,
                      std::span<u64> rung_counts) {
  // Block b is faulty at level l iff grid[l-1] <= vf[b], so bucketing each
  // block by how many ladder rungs sit at or below its fail voltage (and
  // later suffix-summing) gives every level's count at once.
  //
  // That bucket, upper_bound(grid, vf[b]) - grid.begin(), costs O(1): two
  // passes over each chunk of blocks. Pass 1 guesses it from the ladder's
  // mean rung spacing; it has no branches, so it vectorizes and blocks off
  // either end of the ladder cost no mispredicts. Pass 2 walks each guess
  // to the exact bucket against the real rung values, compared in double
  // as upper_bound compares them. The walk stops only where
  // rung[k-1] <= v < rung[k], so the guess decides the speed, never the
  // answer. On the engines' evenly spaced ladders it misses only for
  // floats within rounding error of a rung.
  const std::size_t n = grid.size();
  if (n == 0) {
    rung_counts[0] += vf.size();
    return;
  }
  if (n > kMaxPopulationLevels) {
    throw std::invalid_argument(
        "count_fail_rungs: ladder longer than kMaxPopulationLevels");
  }
  // The ladder between NaN sentinels: every comparison with rung[-1] or
  // rung[n] is false, so the walks stop at both ends without bound checks.
  std::array<double, kMaxPopulationLevels + 2> padded;
  padded[0] = std::numeric_limits<double>::quiet_NaN();
  std::copy(grid.begin(), grid.end(), padded.begin() + 1);
  padded[n + 1] = padded[0];
  const double* rung = padded.data() + 1;

  const double lo = grid.front();
  const double width = grid.back() - lo;
  const double rungs_per_volt =
      width > 0.0 ? static_cast<double>(n - 1) / width : 0.0;
  const double top = static_cast<double>(n);
  constexpr std::size_t kChunk = 256;
  std::array<int, kChunk> guess;
  for (std::size_t at = 0; at < vf.size(); at += kChunk) {
    const std::size_t m = std::min(kChunk, vf.size() - at);
    const float* v = vf.data() + at;
    for (std::size_t i = 0; i < m; ++i) {
      double g = (static_cast<double>(v[i]) - lo) * rungs_per_volt + 1.0;
      g = g < top ? g : top;  // NaN, +inf, above the ladder: n
      g = g > 0.0 ? g : 0.0;  // -inf, below the ladder: 0
      guess[i] = static_cast<int>(g);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double d = v[i];
      std::ptrdiff_t k = guess[i];
      while (rung[k] <= d) ++k;
      while (rung[k - 1] > d) --k;
      ++rung_counts[static_cast<std::size_t>(k)];
    }
  }
}

ChipBinPoint bin_from_fail_summary(float vf_chip,
                                   std::span<const u64> faulty_at,
                                   u64 num_blocks, std::span<const Volt> grid,
                                   double min_capacity) {
  ChipBinPoint p;
  const auto it = std::upper_bound(grid.begin(), grid.end(),
                                   static_cast<Volt>(vf_chip));
  if (it == grid.end()) return p;
  p.floor_level = static_cast<u32>(it - grid.begin()) + 1;

  const u32 n = static_cast<u32>(grid.size());
  const double blocks = static_cast<double>(num_blocks);
  const auto capacity_at = [&](u32 level) {
    if (num_blocks == 0) return 1.0;
    return 1.0 - static_cast<double>(faulty_at[level]) / blocks;
  };

  const double cap_floor = capacity_at(p.floor_level);
  u32 bin = static_cast<u32>(cap_floor *
                             static_cast<double>(kPopulationCapacityBins));
  p.capacity_bin = std::min(bin, kPopulationCapacityBins - 1);

  // Effective capacity is non-decreasing in VDD (fault inclusion), so the
  // first level at/above the floor that meets the target is the SPCS bin.
  for (u32 l = p.floor_level; l <= n; ++l) {
    if (capacity_at(l) >= min_capacity) {
      p.spcs_level = l;
      break;
    }
  }
  return p;
}

PopulationResult make_empty_population_result(std::vector<Volt> grid) {
  PopulationResult r;
  const std::size_t n = grid.size();
  r.grid = std::move(grid);
  r.floor_hist.assign(n, 0);
  r.spcs_hist.assign(n, 0);
  r.capacity_hist.assign(kPopulationCapacityBins, 0);
  r.bin_floor_hist.assign(n * n, 0);
  return r;
}

void accumulate_chip(PopulationResult& r, const ChipBinPoint& p) {
  ++r.num_chips;
  if (p.floor_level == 0) {
    ++r.unusable;
    return;
  }
  const std::size_t n = r.grid.size();
  ++r.floor_hist[p.floor_level - 1];
  ++r.capacity_hist[p.capacity_bin];
  if (p.spcs_level == 0) {
    ++r.no_spcs;
  } else {
    ++r.spcs_hist[p.spcs_level - 1];
    ++r.bin_floor_hist[(p.spcs_level - 1) * n + (p.floor_level - 1)];
  }
}

namespace {

/// Count-rank quantile over a per-level histogram: the level holding the
/// ceil(q * total)-th die (1-based rank, clamped to [1, total]). Integer
/// logic end to end, so every platform agrees on the chosen level.
u64 quantile_rank(u64 total, double q) {
  const double raw = std::ceil(q * static_cast<double>(total));
  if (raw <= 1.0) return 1;
  if (raw >= static_cast<double>(total)) return total;
  return static_cast<u64>(raw);
}

}  // namespace

u64 PopulationResult::viable_at(u32 level) const noexcept {
  u64 cum = 0;
  for (u32 l = 1; l <= level && l <= num_levels(); ++l) {
    cum += floor_hist[l - 1];
  }
  return cum;
}

double PopulationResult::yield_at(u32 level) const noexcept {
  if (num_chips == 0) return 0.0;
  return static_cast<double>(viable_at(level)) /
         static_cast<double>(num_chips);
}

Volt PopulationResult::mean_vdd(
    const std::vector<u64>& level_hist) const noexcept {
  u64 total = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < level_hist.size() && i < grid.size(); ++i) {
    total += level_hist[i];
    sum += grid[i] * static_cast<double>(level_hist[i]);
  }
  if (total == 0) return 0.0;
  return sum / static_cast<double>(total);
}

Volt PopulationResult::quantile_vdd(const std::vector<u64>& level_hist,
                                    double q) const noexcept {
  u64 total = 0;
  for (const u64 c : level_hist) total += c;
  if (total == 0) return 0.0;
  const u64 rank = quantile_rank(total, q);
  u64 cum = 0;
  for (std::size_t i = 0; i < level_hist.size() && i < grid.size(); ++i) {
    cum += level_hist[i];
    if (cum >= rank) return grid[i];
  }
  return grid.back();
}

void PopulationResult::merge(const PopulationResult& shard) {
  if (shard.grid != grid) {
    throw std::invalid_argument("population shard grid mismatch");
  }
  num_chips += shard.num_chips;
  unusable += shard.unusable;
  no_spcs += shard.no_spcs;
  for (std::size_t i = 0; i < floor_hist.size(); ++i) {
    floor_hist[i] += shard.floor_hist[i];
  }
  for (std::size_t i = 0; i < spcs_hist.size(); ++i) {
    spcs_hist[i] += shard.spcs_hist[i];
  }
  for (std::size_t i = 0; i < capacity_hist.size(); ++i) {
    capacity_hist[i] += shard.capacity_hist[i];
  }
  for (std::size_t i = 0; i < bin_floor_hist.size(); ++i) {
    bin_floor_hist[i] += shard.bin_floor_hist[i];
  }
}

// ---- Checkpoint sidecars ---------------------------------------------------

u64 population_fingerprint(std::string_view canonical) {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

[[noreturn]] void bad_checkpoint(const std::string& path,
                                 const std::string& what) {
  throw std::runtime_error("population checkpoint '" + path + "': " + what);
}

void write_hist(std::ostream& f, const char* label,
                const std::vector<u64>& hist) {
  f << label;
  for (const u64 v : hist) f << ' ' << v;
  f << '\n';
}

u64 read_labeled_u64(std::istream& f, const char* label,
                     const std::string& path) {
  std::string got;
  u64 v = 0;
  if (!(f >> got) || got != label || !(f >> v)) {
    bad_checkpoint(path, std::string("expected '") + label + " <count>'");
  }
  return v;
}

void read_hist(std::istream& f, const char* label, std::vector<u64>& hist,
               const std::string& path) {
  std::string got;
  if (!(f >> got) || got != label) {
    bad_checkpoint(path, std::string("expected '") + label + "' section");
  }
  for (u64& v : hist) {
    if (!(f >> v)) bad_checkpoint(path, std::string(label) + " truncated");
  }
}

}  // namespace

void save_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64 shards_done,
                                std::span<const PopulationResult> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) bad_checkpoint(path, "cannot open '" + tmp + "' for writing");
    f << "pcs-population-checkpoint v1\n";
    f << "fingerprint " << fingerprint << '\n';
    f << "shards_done " << shards_done << '\n';
    f << "points " << parts.size() << '\n';
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const PopulationResult& r = parts[i];
      f << "point " << i << '\n';
      f << "num_chips " << r.num_chips << '\n';
      f << "unusable " << r.unusable << '\n';
      f << "no_spcs " << r.no_spcs << '\n';
      write_hist(f, "floor_hist", r.floor_hist);
      write_hist(f, "spcs_hist", r.spcs_hist);
      write_hist(f, "capacity_hist", r.capacity_hist);
      write_hist(f, "bin_floor_hist", r.bin_floor_hist);
    }
    f << "end\n";
    f.flush();
    if (!f) bad_checkpoint(path, "write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    bad_checkpoint(path, "rename from '" + tmp + "' failed");
  }
}

bool load_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64& shards_done,
                                std::vector<PopulationResult>& parts) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;  // no sidecar yet: fresh start
  std::string magic, version;
  if (!(f >> magic >> version) || magic != "pcs-population-checkpoint" ||
      version != "v1") {
    bad_checkpoint(path, "not a v1 checkpoint file");
  }
  const u64 fp = read_labeled_u64(f, "fingerprint", path);
  if (fp != fingerprint) {
    bad_checkpoint(path,
                   "fingerprint mismatch (sidecar belongs to a different "
                   "run spec/model; delete it or fix the spec)");
  }
  shards_done = read_labeled_u64(f, "shards_done", path);
  const u64 npoints = read_labeled_u64(f, "points", path);
  if (npoints != parts.size()) {
    bad_checkpoint(path, "point count mismatch");
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    PopulationResult& r = parts[i];
    if (read_labeled_u64(f, "point", path) != i) {
      bad_checkpoint(path, "points out of order");
    }
    r.num_chips = read_labeled_u64(f, "num_chips", path);
    r.unusable = read_labeled_u64(f, "unusable", path);
    r.no_spcs = read_labeled_u64(f, "no_spcs", path);
    read_hist(f, "floor_hist", r.floor_hist, path);
    read_hist(f, "spcs_hist", r.spcs_hist, path);
    read_hist(f, "capacity_hist", r.capacity_hist, path);
    read_hist(f, "bin_floor_hist", r.bin_floor_hist, path);
  }
  std::string tail;
  if (!(f >> tail) || tail != "end") bad_checkpoint(path, "truncated file");
  return true;
}

bool try_load_population_checkpoint(const std::string& path, u64 fingerprint,
                                    u64& shards_done,
                                    std::vector<PopulationResult>& parts,
                                    bool strict) {
  try {
    return load_population_checkpoint(path, fingerprint, shards_done, parts);
  } catch (const std::exception& e) {
    if (strict) throw;
    std::fprintf(stderr,
                 "pcs: checkpoint sidecar rejected, starting fresh: %s\n",
                 e.what());
    return false;
  }
}

// ---- Engine ----------------------------------------------------------------

PopulationEngine::PopulationEngine(const BerModel& ber, u32 num_threads)
    : ber_(&ber),
      num_threads_(num_threads == 0 ? pcs_thread_count() : num_threads) {}

namespace {

std::string population_canonical(const PopulationSpec& spec, Volt mu,
                                 Volt sigma) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "population|v1|mu=%.17g|sigma=%.17g|size=%llu|assoc=%u|"
                "block=%u|chips=%llu|seed=%llu|lo=%.17g|hi=%.17g|step=%.17g|"
                "mincap=%.17g|shard=%llu",
                mu, sigma,
                static_cast<unsigned long long>(spec.org.size_bytes),
                spec.org.assoc, spec.org.block_bytes,
                static_cast<unsigned long long>(spec.num_chips),
                static_cast<unsigned long long>(spec.seed), spec.grid_lo,
                spec.grid_hi, spec.grid_step, spec.spcs_min_capacity,
                static_cast<unsigned long long>(spec.chips_per_shard));
  return buf;
}

}  // namespace

PopulationResult PopulationEngine::run(const PopulationSpec& spec,
                                       TraceSink* trace,
                                       const CheckpointOptions* ckpt) const {
  spec.org.validate();
  const std::vector<Volt> grid = spec.grid();
  const u64 per_shard = std::max<u64>(1, spec.chips_per_shard);
  const u64 num_shards =
      spec.num_chips == 0 ? 0 : (spec.num_chips + per_shard - 1) / per_shard;

  PopulationResult merged = make_empty_population_result(grid);
  const bool checkpointing = ckpt != nullptr && !ckpt->path.empty();
  const u64 fp = checkpointing
                     ? population_fingerprint(population_canonical(
                           spec, ber_->mu(), ber_->sigma()))
                     : 0;
  u64 start_shard = 0;
  if (checkpointing && ckpt->resume) {
    std::vector<PopulationResult> parts(1, merged);
    u64 done = 0;
    if (try_load_population_checkpoint(ckpt->path, fp, done, parts,
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
        merged = std::move(parts[0]);
      }
    }
  }

  // Each shard folds its chips into integer histograms; chip c's RNG seed
  // depends only on (spec.seed, c), so neither the shard size nor the
  // thread count can change which dies get manufactured.
  const auto shard_task = [&](u64 s) {
    PopulationResult part = make_empty_population_result(grid);
    const u64 first = s * per_shard;
    const u64 end = std::min(spec.num_chips, first + per_shard);
    for (u64 c = first; c < end; ++c) {
      Rng rng(derive_seed(spec.seed, 0, c));
      CellFaultField field = CellFaultField::sample_fast(
          *ber_, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
      accumulate_chip(part,
                      bin_chip(field, spec.org, grid, spec.spcs_min_capacity));
    }
    return part;
  };
  run_population_shards(
      num_threads_, start_shard, num_shards, ckpt, shard_task,
      [&](u64 s, const PopulationResult& part) {
        if (trace != nullptr) {
          // Deterministic section: shard records in shard order, counts
          // only (resumed runs cover just the shards they ran).
          trace->emit(TraceRecord("population_shard")
                          .field("shard", s)
                          .field("first_chip", s * per_shard)
                          .field("chips", part.num_chips)
                          .field("unusable", part.unusable));
        }
        merged.merge(part);
      },
      [&](u64 done) {
        save_population_checkpoint(ckpt->path, fp, done,
                                   std::span<const PopulationResult>(&merged,
                                                                     1));
      });
  return merged;
}

void render_population_report(const PopulationSpec& spec,
                              const PopulationResult& r, std::ostream& out) {
  const u32 n = r.num_levels();
  char line[256];
  // chips_per_shard is deliberately absent: it must not change a single
  // byte of the report (shard-size invariance, tested by cmp in CI).
  std::snprintf(line, sizeof line,
                "chip population: %s dies of %llu KB %u-way "
                "(seed %llu, grid %.3f..%.3f V step %.3f)\n\n",
                fmt_count(r.num_chips).c_str(),
                static_cast<unsigned long long>(spec.org.size_bytes / 1024),
                spec.org.assoc, static_cast<unsigned long long>(spec.seed),
                r.grid.front(), r.grid.back(), spec.grid_step);
  out << line;

  // Yield curve over the support of the min-VDD distribution (the CDF is
  // flat outside it: 0 below, saturated at usable/num_chips above).
  u32 lmin = 0, lmax = 0;
  for (u32 l = 1; l <= n; ++l) {
    if (r.floor_hist[l - 1] != 0) {
      if (lmin == 0) lmin = l;
      lmax = l;
    }
  }
  out << "fleet yield vs VDD:\n";
  if (lmin == 0) {
    out << "  (no usable dies)\n";
  } else {
    TextTable yield_table({"VDD (V)", "viable dies", "yield"});
    u64 cum = 0;
    for (u32 l = lmin; l <= lmax; ++l) {
      cum += r.floor_hist[l - 1];
      yield_table.add_row({fmt_fixed(r.grid[l - 1], 3), fmt_count(cum),
                           fmt_pct(static_cast<double>(cum) /
                                       static_cast<double>(r.num_chips),
                                   3)});
    }
    yield_table.print(out);
  }

  out << "\nper-die distributions:\n";
  TextTable dist({"metric", "mean", "min", "max", "p50", "p95", "p99"});
  auto dist_row = [&](const char* name, const std::vector<u64>& hist) {
    dist.add_row({name, fmt_fixed(r.mean_vdd(hist), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.0), 3),
                  fmt_fixed(r.quantile_vdd(hist, 1.0), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.5), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.95), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.99), 3)});
  };
  dist_row("per-die min-VDD (viable floor)", r.floor_hist);
  dist_row("per-die SPCS VDD (capacity bin)", r.spcs_hist);
  dist.print(out);

  // Effective capacity at the per-die floor, from the fixed [0,1) binning.
  u64 cap_total = 0;
  double cap_sum = 0.0;
  for (u32 b = 0; b < kPopulationCapacityBins; ++b) {
    cap_total += r.capacity_hist[b];
    cap_sum += (static_cast<double>(b) + 0.5) /
               static_cast<double>(kPopulationCapacityBins) *
               static_cast<double>(r.capacity_hist[b]);
  }
  if (cap_total != 0) {
    const u64 rank = quantile_rank(cap_total, 0.05);
    u64 cum = 0;
    double cap_p05 = 0.0;
    for (u32 b = 0; b < kPopulationCapacityBins; ++b) {
      cum += r.capacity_hist[b];
      if (cum >= rank) {
        cap_p05 = (static_cast<double>(b) + 0.5) /
                  static_cast<double>(kPopulationCapacityBins);
        break;
      }
    }
    std::snprintf(line, sizeof line,
                  "\neffective capacity at the per-die floor: mean %s, "
                  "p05 %s (bin width %.0f%%)\n",
                  fmt_pct(cap_sum / static_cast<double>(cap_total), 1).c_str(),
                  fmt_pct(cap_p05, 1).c_str(),
                  100.0 / static_cast<double>(kPopulationCapacityBins));
    out << line;
  }

  std::snprintf(line, sizeof line,
                "unusable dies (faulty even at nominal): %s / %s\n",
                fmt_count(r.unusable).c_str(), fmt_count(r.num_chips).c_str());
  out << line;
  std::snprintf(line, sizeof line,
                "usable dies below the %.0f%%-capacity SPCS target at every "
                "level: %s\n",
                spec.spcs_min_capacity * 100.0, fmt_count(r.no_spcs).c_str());
  out << line;

  // Per-bin DPCS ladder tuning: each SPCS bin (VDD1 candidate) with the
  // floor distribution of its own dies (VDD2 candidates) and the cell
  // leakage at the bin voltage relative to nominal (soi45 calibration).
  const LeakageModel leak(Technology::soi45());
  out << "\nSPCS bins (per-bin DPCS ladder tuning):\n";
  TextTable bins({"bin VDD1 (V)", "dies", "share", "floor p50", "floor max",
                  "cell leakage vs nominal"});
  for (u32 s = 1; s <= n; ++s) {
    const u64 dies = r.spcs_hist[s - 1];
    if (dies == 0) continue;
    const std::size_t row0 = static_cast<std::size_t>(s - 1) * n;
    std::vector<u64> floor_row(r.bin_floor_hist.begin() +
                                   static_cast<std::ptrdiff_t>(row0),
                               r.bin_floor_hist.begin() +
                                   static_cast<std::ptrdiff_t>(row0 + n));
    bins.add_row(
        {fmt_fixed(r.grid[s - 1], 3), fmt_count(dies),
         fmt_pct(static_cast<double>(dies) / static_cast<double>(r.num_chips),
                 2),
         fmt_fixed(r.quantile_vdd(floor_row, 0.5), 3),
         fmt_fixed(r.quantile_vdd(floor_row, 1.0), 3),
         fmt_pct(leak.scale_factor(r.grid[s - 1]), 1)});
  }
  if (bins.rows() == 0) {
    out << "  (no SPCS-binnable dies)\n";
  } else {
    bins.print(out);
  }

  out << "\ndesign-time VDD1 (fleet-wide yield target) sits at the ~p99 of "
         "the per-die distribution;\nper-bin tuning recovers the margin "
         "between each bin's own VDD and that guardband.\n";
}

}  // namespace pcs
