// INV002 true positive: the grid fingerprint covers PopulationSpec as its
// base, and this one forgets the base's grid_step, so a grid checkpoint
// would still resume after the ladder step changed.
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
                      "|drift=" + std::to_string(b.drift_mv) + "|sizes=";
  for (const unsigned s : spec.sizes_kb) canon += std::to_string(s) + ",";
  return canon;
}
