// INV002 clean case: the grid fingerprint names every PopulationGridSpec
// axis and every field of its PopulationSpec base.
#include <string>
#include <vector>

struct PopulationGridSpec {
  PopulationSpec base;
  std::vector<unsigned> sizes_kb;
};

std::string grid_canonical(const PopulationGridSpec& spec) {
  const PopulationSpec& b = spec.base;
  std::string canon = "population-grid|v9|chips=" +
                      std::to_string(b.num_chips) +
                      "|seed=" + std::to_string(b.seed) +
                      "|step=" + std::to_string(b.grid_step) +
                      "|drift=" + std::to_string(b.drift_mv) + "|sizes=";
  for (const unsigned s : spec.sizes_kb) canon += std::to_string(s) + ",";
  return canon;
}
