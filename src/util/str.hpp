// Small string helpers shared by the PLA parser, DIMACS I/O and reporting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace janus {

/// Parse a strictly-decimal count in [min, max]: digits only (no sign, no
/// trailing junk, no overflow). Shared by the PLA and solution-cache parsers
/// so malformed headers fail uniformly. nullopt on any violation.
[[nodiscard]] std::optional<int> parse_count(std::string_view token, int min,
                                             int max);

/// Signed variant of parse_count: an optional leading '-' followed by digits
/// only, range-checked against [min, max]. Replaces std::stoi/std::atoi at
/// every call site (the project linter, tools/check_lint.py, forbids those:
/// atoi returns 0 on garbage, stoi throws and accepts trailing junk).
/// nullopt on any violation.
[[nodiscard]] std::optional<int> parse_int(std::string_view token, int min,
                                           int max);

/// Parse a finite decimal number ("30", "-2.5", "1e3"): an optional '-',
/// then a digit, then whatever std::from_chars reads as the rest of a
/// number. Whitespace, '+', hex, "inf", "nan", trailing junk and
/// out-of-range magnitudes are rejected. Locale-independent. The only place
/// the project converts text to double (tools/check_lint.py forbids
/// atof/strtod/stod elsewhere). nullopt on any violation.
[[nodiscard]] std::optional<double> parse_decimal(std::string_view token);

/// Largest duration parse_seconds accepts: 10^6 s, about 11.5 days.
inline constexpr double kMaxSeconds = 1e6;

/// Parse a command-line duration in seconds: a parse_decimal number without
/// a sign, in (0, kMaxSeconds], or [0, kMaxSeconds] when `allow_zero` (for
/// flags where 0 means "unlimited" or "none"). nullopt on any violation.
[[nodiscard]] std::optional<double> parse_seconds(std::string_view token,
                                                  bool allow_zero);

/// Split `text` on any of the whitespace characters, dropping empty tokens.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True when `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Fixed-width left-aligned / right-aligned cells for table printing.
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

/// Format a double with `digits` decimals (locale-independent).
[[nodiscard]] std::string format_fixed(double value, int digits);

}  // namespace janus
