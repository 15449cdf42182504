// DET002 clean case: the unordered map is drained through a sorted key
// vector, so output order is content-determined, not hash-order.
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

void dump(const std::unordered_map<int, int>& hist) {
  std::vector<int> keys;
  keys.reserve(hist.size());
  for (int k = 0; k < 1024; ++k) {
    if (hist.find(k) != hist.end()) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (const int k : keys) std::printf("%d %d\n", k, hist.at(k));
}
