// DET001/DET002/DET004 true positives in helpers that never print: each
// rule fires at the site itself, whether or not a caller carries the value
// into output (here write_summary_line would).
#include <atomic>
#include <chrono>
#include <unordered_map>

void write_summary_line(int key, double value);

double helper_stamp() {
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

void report_helpers() {
  write_summary_line(0, helper_stamp());
}

double fold_partial(const std::unordered_map<int, double>& parts) {
  double sum = 0.0;
  for (const auto& [key, value] : parts) sum += key * value;
  return sum;
}

void report_partials(const std::unordered_map<int, double>& parts) {
  write_summary_line(2, fold_partial(parts));
}

void reduce_tasks(const double* values, int n) {
  std::atomic<double> acc{0.0};
  for (int i = 0; i < n; ++i) acc += values[i];
  write_summary_line(1, acc.load());
}
