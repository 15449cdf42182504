// DET006/DET002 true positives with no path to output: thread ids and
// hash-order iteration are reported wherever they appear.
#include <cstddef>
#include <thread>
#include <unordered_map>

std::size_t lane_of() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 8;
}

double local_mass(const std::unordered_map<int, double>& parts) {
  double sum = 0.0;
  for (const auto& [key, value] : parts) sum += value + key;
  return sum;
}
