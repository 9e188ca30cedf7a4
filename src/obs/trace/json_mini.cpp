#include "obs/trace/json_mini.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace gridse::obs::jsonm {
namespace {

/// Recursive-descent parser over a string_view; positions only move
/// forward, errors carry the offset for debuggability.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != input_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidInput("json: " + what + " at offset " +
                       std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= input_.size()) {
      fail("unexpected end of input");
    }
    return input_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (input_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = c == 't';
        if (!consume_literal(c == 't' ? "true" : "false")) {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') {
        fail("expected object key");
      }
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return v;
      }
      if (c != ',') {
        fail("expected ',' or '}'");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return v;
      }
      if (c != ',') {
        fail("expected ',' or ']'");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) {
        break;
      }
      const char esc = input_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > input_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = input_[pos_++];
            code <<= 4u;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writers only escape ASCII control characters; anything
          // else is passed through as a replacement byte.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          fail("bad escape character");
      }
    }
    fail("unterminated string");
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) != 0 ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E' || input_[pos_] == '+' ||
            input_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.text = std::string(input_.substr(start, pos_ - start));
    // The scan takes any run of number characters; "0.5.5", "-" or "1e"
    // must not read as their longest valid prefix.
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size() || !std::isfinite(v.number)) {
      pos_ = start;
      fail("bad number \"" + v.text + "\"");
    }
    return v;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::uint64_t Value::as_u64() const {
  if (type != Type::kNumber) {
    return 0;
  }
  // strtoull would read "1e3" as 1, "2.7" as 2 and wrap "-5"; only a plain
  // decimal integer that fits is an id or a timestamp.
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      std::isdigit(static_cast<unsigned char>(text[0])) != 0
          ? std::strtoull(text.c_str(), &end, 10)
          : 0;
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    throw InvalidInput("json: \"" + text +
                       "\" is not an unsigned 64-bit integer");
  }
  return value;
}

Value parse(std::string_view input) { return Parser(input).run(); }

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace gridse::obs::jsonm
