#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace pcs {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("table needs >=1 column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("row arity does not match header");
  }
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

namespace {
std::string printf_str(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}
}  // namespace

std::string fmt_fixed(double v, int digits) {
  char fmt[16];
  std::snprintf(fmt, sizeof fmt, "%%.%df", digits);
  return printf_str(fmt, v);
}

std::string fmt_sci(double v, int digits) {
  char fmt[16];
  std::snprintf(fmt, sizeof fmt, "%%.%de", digits);
  return printf_str(fmt, v);
}

std::string fmt_pct(double fraction, int digits) {
  return fmt_fixed(fraction * 100.0, digits) + "%";
}

std::string fmt_watts(double watts) {
  if (watts < 1e-3) return fmt_fixed(watts * 1e6, 2) + " uW";
  if (watts < 1.0) return fmt_fixed(watts * 1e3, 3) + " mW";
  return fmt_fixed(watts, 3) + " W";
}

std::string fmt_joules(double joules) {
  if (joules < 1e-3) return fmt_fixed(joules * 1e6, 2) + " uJ";
  if (joules < 1.0) return fmt_fixed(joules * 1e3, 3) + " mJ";
  return fmt_fixed(joules, 3) + " J";
}

std::string fmt_count(unsigned long long v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i == lead && i != 0) {
      out += ',';
      lead += 3;
    } else if (i > lead && (i - lead) % 3 == 0) {
      out += ',';
    }
    out += digits[i];
  }
  return out;
}

}  // namespace pcs
