// population and population_grid: the fleet engines behind the paper's
// Fig. 3 yield / min-VDD story. No cache simulation: the per-die draw and
// order-statistic chain, the fail-voltage fold and the rung histogram.
//
// population runs the chain once per die and its histogram over one size;
// population_grid pays the z chain once per die, then the affine pass per
// sigma and histogram + binning per point. A chain speedup shows strongly
// in population and weakly in population_grid; a histogram/binning change
// shows the reverse.
#include <sstream>
#include <string>

#include "common.hpp"
#include "exp/job_service.hpp"
#include "tech/technology.hpp"
#include "traced.hpp"
#include "util/vecmath.hpp"

namespace pcs::e2e {

namespace {

// Sized so a rep fits several times into a run on a 4-core host.
constexpr u64 kPopulationDies = 75'000;
constexpr u64 kGridDies = 30'000;
// The traced runs re-drive a prefix single-threaded.
constexpr u64 kTracedPopulationDies = 50'000;
constexpr u64 kTracedGridDies = 5'000;

PopulationJobSpec population_job(const Options& o) {
  PopulationJobSpec job;
  job.spec.org = CacheOrg{64 * 1024, 4, 64, 31};
  job.spec.num_chips = kPopulationDies;
  job.spec.seed = o.population_seed();
  return job;
}

/// The 24-point reference grid of POPULATION.md.
PopulationGridSpec grid_spec(const Options& o) {
  PopulationGridSpec spec;
  spec.base.num_chips = kGridDies;
  spec.base.seed = o.population_seed();
  spec.sizes_kb = {32, 64};
  spec.assocs = {2, 4, 8, 16};
  spec.sigmas = {0.1426, 0.1585, 0.1823};
  spec.validate();
  return spec;
}

void put_result(std::string& b, const PopulationResult& r) {
  for (const Volt v : r.grid) put_bits(b, v);
  for (const u64 v : {r.num_chips, r.unusable, r.no_spcs}) put_u64(b, v);
  for (const auto* h :
       {&r.floor_hist, &r.spcs_hist, &r.capacity_hist, &r.bin_floor_hist}) {
    for (const u64 v : *h) put_u64(b, v);
  }
}

std::string grid_bytes(const PopulationGridResult& g) {
  std::string b;
  for (const PopulationGridPointResult& p : g.points) {
    put_u64(b, p.size_kb);
    put_u64(b, p.assoc);
    put_bits(b, p.sigma);
    put_result(b, p.result);
  }
  return b;
}

}  // namespace

void run_population(const Options& o, Report& r) {
  const double t0 = now_s();
  vecmath::fast_math_active();  // the lazy libm discovery is set-up work
  const PopulationJobSpec job = population_job(o);
  const BerModel ber(Technology::soi45());  // run_population_job's sigma 0
  r.setup_s = now_s() - t0;
  if (o.setup_only) return;

  if (o.traced) {
    PopulationSpec spec = job.spec;
    spec.num_chips = kTracedPopulationDies;
    PopulationResult want;
    const double untraced_s =
        wall_of([&] { want = PopulationEngine(ber, 1).run(spec); });
    ++r.attempted;
    std::string bytes;
    put_result(bytes, want);
    r.digest = hex_digest(bytes);

    Tracer tr;
    const u64 root = tr.open("population");
    const PopulationResult got = trace_population(tr, root, spec, ber);
    tr.close(root);
    r.check(got == want, "traced population differs from PopulationEngine");
    tr.report_layers(root, untraced_s, r);
    tr.write_jsonl(o.trace_out, o.workload);
    return;
  }

  std::string first;
  const std::vector<double> walls = timed_reps(o.seconds, [&] {
    std::ostringstream out;
    const double wall =
        wall_of([&] { run_population_job(job, out, o.threads); });
    ++r.attempted;
    if (first.empty()) {
      first = out.str();
    } else {
      r.check(out.str() == first, "population rep differs from the first rep");
    }
    return wall;
  });
  r.metric("throughput", static_cast<double>(kPopulationDies) / median(walls),
           "1/s");
  r.digest = hex_digest(first);

  // The grid engine at the single point (64 KB, 4-way, soi45 sigma) must
  // render the identical report from its own shared-draw path.
  PopulationGridSpec one;
  one.base = job.spec;
  const PopulationGridResult g = PopulationGridEngine(ber, o.threads).run(one);
  std::ostringstream check;
  render_population_report(job.spec, g.points.at(0).result, check);
  r.check(check.str() == first,
          "population report differs from the grid engine's single point");
}

void run_population_grid(const Options& o, Report& r) {
  const double t0 = now_s();
  vecmath::fast_math_active();
  const PopulationGridSpec spec = grid_spec(o);
  const BerModel ber(Technology::soi45());  // run_population_grid_job's
  r.setup_s = now_s() - t0;
  if (o.setup_only) return;

  if (o.traced) {
    PopulationGridSpec small = spec;
    small.base.num_chips = kTracedGridDies;
    PopulationGridResult want;
    const double untraced_s =
        wall_of([&] { want = PopulationGridEngine(ber, 1).run(small); });
    ++r.attempted;
    r.digest = hex_digest(grid_bytes(want));

    Tracer tr;
    const u64 root = tr.open("population_grid");
    const PopulationGridResult got =
        trace_population_grid(tr, root, small, ber);
    tr.close(root);
    for (std::size_t p = 0; p < want.points.size(); ++p) {
      r.check(got.points.at(p).result == want.points[p].result,
              "traced grid point " + std::to_string(p) +
                  " differs from PopulationGridEngine");
    }
    tr.report_layers(root, untraced_s, r);
    tr.write_jsonl(o.trace_out, o.workload);
    return;
  }

  const PopulationGridEngine engine(ber, o.threads);
  PopulationGridResult first;
  std::string first_bytes;
  const std::vector<double> walls = timed_reps(o.seconds, [&] {
    PopulationGridResult g;
    std::ostringstream out;
    const double wall = wall_of([&] {
      g = engine.run(spec);
      render_population_grid_report(spec, g, out);
    });
    ++r.attempted;
    std::string bytes = out.str() + grid_bytes(g);
    if (first_bytes.empty()) {
      first = std::move(g);
      first_bytes = std::move(bytes);
    } else {
      r.check(bytes == first_bytes, "grid rep differs from the first rep");
    }
    return wall;
  });
  r.metric("throughput",
           static_cast<double>(kGridDies * spec.num_points()) / median(walls),
           "1/s");
  r.digest = hex_digest(first_bytes);

  // One point, rotating with the seed, against a standalone
  // PopulationEngine run of that point's spec.
  const PopulationGridPointResult& pt =
      first.points.at(o.seed % first.points.size());
  const PopulationResult alone =
      PopulationEngine(BerModel(ber.mu(), pt.sigma), o.threads)
          .run(spec.point_spec(pt.size_kb, pt.assoc));
  r.check(alone == pt.result,
          "grid point differs from a standalone PopulationEngine run");
}

}  // namespace pcs::e2e
