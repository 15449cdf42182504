// Exact parsing of integers that come from outside the process: command
// line arguments and PCS_* environment variables.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

#include "util/types.hpp"

namespace pcs {

/// `text` as a decimal u64 when the whole of it is one, else nullopt. An
/// empty string, a sign, a fraction or exponent, trailing characters and
/// overflow all fail, where strtoull would return a wrong value.
inline std::optional<u64> parse_u64(std::string_view text) {
  u64 value = 0;
  const auto [stop, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || stop != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// For command-line front ends: `text`, the value of the argument or
/// environment variable `what`, as an integer in [lo, hi]. Anything else
/// prints `PROG: WHAT must be <the range>, got 'TEXT'` and exits 2.
inline u64 cli_u64(const char* prog, const char* what, const char* text,
                   u64 lo = 0, u64 hi = ~u64{0}) {
  const auto v = parse_u64(text);
  if (v && *v >= lo && *v <= hi) return *v;
  if (hi == ~u64{0} && lo <= 1) {
    std::fprintf(stderr, "%s: %s must be a %s integer, got '%s'\n", prog,
                 what, lo == 0 ? "non-negative" : "positive", text);
  } else {
    std::fprintf(stderr,
                 "%s: %s must be an integer in [%llu, %llu], got '%s'\n", prog,
                 what, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
  }
  std::exit(2);
}

}  // namespace pcs
