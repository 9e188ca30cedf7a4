#pragma once

// Seeded byte mutation shared by the parser fuzz tests.

#include <cstddef>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace gridse::fuzz {

/// One seeded mutation of `text` (non-empty): truncate it, flip one to
/// three bits, or insert a byte — half the time one of `significant`, the
/// characters that carry the format's syntax.
inline std::string mutate(const std::string& text, Rng& rng,
                          std::string_view significant) {
  std::string out = text;
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0:
      out.resize(pos(out.size()));
      break;
    case 1:
      for (std::int64_t flips = rng.uniform_int(1, 3); flips > 0; --flips) {
        char& byte = out[pos(out.size())];
        byte = static_cast<char>(byte ^ (1 << rng.uniform_int(0, 7)));
      }
      break;
    default: {
      const char byte = rng.bernoulli(0.5)
                            ? significant[pos(significant.size())]
                            : static_cast<char>(rng.uniform_int(0, 255));
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos(out.size() + 1)),
                 byte);
      break;
    }
  }
  return out;
}

}  // namespace gridse::fuzz
