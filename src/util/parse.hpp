// Exact parsing of integers that come from outside the process: command
// line arguments and PCS_* environment variables.
#pragma once

#include <charconv>
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

}  // namespace pcs
