#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace gridse {

/// Split `s` on `sep`, dropping empty fields when `keep_empty` is false.
std::vector<std::string> split(std::string_view s, char sep,
                               bool keep_empty = false);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Strict number parsing for flags and environment overrides: all of `raw`
/// must be one base-10 integer (or one finite floating-point number) within
/// range, or InvalidInput "<name>: expected <expectation>, got "<raw>"" is
/// thrown — "3x" never silently reads as 3, and neither " 3" nor "+3" is
/// taken.
long long parse_integer(
    const std::string& name, const std::string& raw, const char* expectation,
    long long min_value = std::numeric_limits<long long>::min(),
    long long max_value = std::numeric_limits<long long>::max());
double parse_double(const std::string& name, const std::string& raw,
                    const char* expectation);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("512 MB", "2.0 GB").
std::string format_bytes(std::size_t bytes);

}  // namespace gridse
