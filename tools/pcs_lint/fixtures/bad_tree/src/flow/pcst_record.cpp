// DET001 true positive in a recorder: a wall-clock value stamped into a
// .pcst stream would make byte-compared replay input differ per run. The
// rule fires at the clock read, with no printf in sight.
#include <chrono>

class PcstWriter;
PcstWriter* open_session_writer();
void writer_append(PcstWriter* writer, double value);

void append_session_meta(double stamp) {
  PcstWriter* writer = open_session_writer();
  writer_append(writer, stamp);
}

double session_stamp() {
  const auto now = std::chrono::system_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

void record_session() {
  append_session_meta(session_stamp());
}
