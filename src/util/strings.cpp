#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace gridse {

std::vector<std::string> split(std::string_view s, char sep, bool keep_empty) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > start || keep_empty) {
        out.emplace_back(s.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

[[noreturn]] void reject_number(const std::string& name, const std::string& raw,
                                const char* expectation) {
  throw InvalidInput(name + ": expected " + expectation + ", got \"" + raw +
                     "\"");
}

/// strtoll/strtod skip leading whitespace and take a '+' sign; a number
/// here starts with its first digit, '-' or '.'.
bool starts_bare(const std::string& raw) {
  return !raw.empty() && raw[0] != '+' &&
         std::isspace(static_cast<unsigned char>(raw[0])) == 0;
}

}  // namespace

long long parse_integer(const std::string& name, const std::string& raw,
                        const char* expectation, long long min_value,
                        long long max_value) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (!starts_bare(raw) || end == raw.c_str() || *end != '\0' ||
      errno == ERANGE || value < min_value || value > max_value) {
    reject_number(name, raw, expectation);
  }
  return value;
}

double parse_double(const std::string& name, const std::string& raw,
                    const char* expectation) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw.c_str(), &end);
  if (!starts_bare(raw) || end == raw.c_str() || *end != '\0' ||
      errno == ERANGE || !std::isfinite(value)) {
    reject_number(name, raw, expectation);
  }
  return value;
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_bytes(std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    return strfmt("%.1f GB", b / (1024.0 * 1024.0 * 1024.0));
  }
  if (b >= 1024.0 * 1024.0) {
    return strfmt("%.0f MB", b / (1024.0 * 1024.0));
  }
  if (b >= 1024.0) {
    return strfmt("%.0f KB", b / 1024.0);
  }
  return strfmt("%zu B", bytes);
}

}  // namespace gridse
