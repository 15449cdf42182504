// DET002 true positives: hash-order iteration.
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

void dump(const std::unordered_map<int, int>& hist,
          std::unordered_set<int>& live) {
  for (const auto& [key, count] : hist) {
    std::printf("%d %d\n", key, count);
  }
  for (auto it = live.begin(); it != live.end(); ++it) {
    std::printf("%d\n", *it);
  }
}

// The deduced-type declaration below is the structured-binding hole the
// token matcher used to miss: `m` never appears next to `unordered_map`.
void dump_auto() {
  auto m = std::unordered_map<int, int>{{1, 2}, {3, 4}};
  for (const auto& [key, count] : m) {
    std::printf("%d %d\n", key, count);
  }
}
