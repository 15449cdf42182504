// ASCII table / CSV emission used by the bench harnesses to print
// paper-figure data series in a uniform format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace pcs {

/// Column-aligned ASCII table with a header row.
///
/// Cells are strings; numeric formatting is the caller's job (see the fmt_*
/// helpers below) so each bench controls its own precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends one row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with a separator line under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-point with `digits` decimals, e.g. fmt_fixed(3.14159, 2) == "3.14".
std::string fmt_fixed(double v, int digits);

/// Scientific notation with `digits` significant decimals, e.g. "1.23e-05".
std::string fmt_sci(double v, int digits);

/// Percentage with `digits` decimals, e.g. fmt_pct(0.123, 1) == "12.3%".
std::string fmt_pct(double fraction, int digits);

/// Engineering notation for watts: picks uW/mW/W, e.g. "12.3 mW".
std::string fmt_watts(double watts);

/// Engineering notation for joules: picks uJ/mJ/J.
std::string fmt_joules(double joules);

/// Thousands-separated integer, e.g. "1,234,567".
std::string fmt_count(unsigned long long v);

}  // namespace pcs
