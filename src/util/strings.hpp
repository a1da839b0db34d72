// Small string utilities shared by the expression parser, tracing, and the
// benchmark table printers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sa::util {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strict numeric parsers for command-line flags: the whole string must be a
/// valid number (no trailing junk, no leading whitespace), otherwise nullopt.
/// Unlike std::stod/std::stoul they never throw and never accept "0.5x".
std::optional<double> parse_double(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);

}  // namespace sa::util
