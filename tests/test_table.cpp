// Unit tests for the table/CSV renderer and numeric formatters.
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace pcs {
namespace {

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
  // All lines of a column start at the same offset: "v" column after "name  ".
  EXPECT_NE(s.find("longer  22"), std::string::npos);
}

TEST(TextTable, RowCount) {
  TextTable t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Format, Fixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_fixed(-1.5, 1), "-1.5");
}

TEST(Format, Sci) {
  EXPECT_EQ(fmt_sci(1.234e-5, 2), "1.23e-05");
  EXPECT_EQ(fmt_sci(9.87e9, 1), "9.9e+09");
}

TEST(Format, Pct) {
  EXPECT_EQ(fmt_pct(0.123, 1), "12.3%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
  EXPECT_EQ(fmt_pct(-0.05, 1), "-5.0%");
}

TEST(Format, Watts) {
  EXPECT_EQ(fmt_watts(12.3e-6), "12.30 uW");
  EXPECT_EQ(fmt_watts(0.0123), "12.300 mW");
  EXPECT_EQ(fmt_watts(1.5), "1.500 W");
}

TEST(Format, Joules) {
  EXPECT_EQ(fmt_joules(45e-6), "45.00 uJ");
  EXPECT_EQ(fmt_joules(0.045), "45.000 mJ");
  EXPECT_EQ(fmt_joules(2.0), "2.000 J");
}

TEST(Format, Count) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(1000000000ULL), "1,000,000,000");
}

}  // namespace
}  // namespace pcs
