// DET006 true positives: scheduler/ASLR-dependent identity values, each
// reported where it is produced.
#include <cstdint>
#include <cstdio>
#include <thread>

void write_summary_line(int key, double value);

void tag_shard_with_thread() {
  const auto tid = std::this_thread::get_id();
  write_summary_line(3, std::hash<std::thread::id>{}(tid) % 997);
}

void dump_buffer_address(const double* buf) {
  std::printf("buf=%p\n", static_cast<const void*>(buf));
}

void key_by_pointer(const double* buf) {
  const auto key = reinterpret_cast<std::uintptr_t>(buf);
  write_summary_line(4, static_cast<double>(key));
}
