#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gridse::obs::jsonm {

/// Minimal JSON document model + strict parser, shared by the trace
/// collector, the gridse_trace tool, and their tests. Numbers keep their
/// source text alongside the double so 64-bit ids round-trip exactly.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string value, or the raw numeric token
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }

  /// Exact unsigned 64-bit read of a numeric token; 0 for non-numbers.
  /// Throws gridse::InvalidInput when the token is not a plain decimal
  /// integer ("-5", "2.7", "1e3") or does not fit in 64 bits.
  [[nodiscard]] std::uint64_t as_u64() const;
};

/// Parse one JSON document. Throws gridse::InvalidInput on malformed input
/// or trailing garbage.
[[nodiscard]] Value parse(std::string_view input);

/// JSON string escaping (shared by the trace writers).
[[nodiscard]] std::string escape(std::string_view raw);

}  // namespace gridse::obs::jsonm
