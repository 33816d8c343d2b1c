#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace neatbound::support {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(Array items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Object members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

const char* JsonValue::kind_name() const noexcept {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void kind_error(const char* want, const char* got) {
  throw std::runtime_error(std::string("JSON: expected ") + want + ", have " +
                           got);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind_name());
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number", kind_name());
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  const double n = as_number();
  if (!(n >= 0.0) || n != std::floor(n) || n > 9.007199254740992e15) {
    throw std::runtime_error(
        "JSON: expected a non-negative integer, have " + std::to_string(n));
  }
  return static_cast<std::uint64_t>(n);
}

std::uint32_t JsonValue::as_uint32() const {
  const std::uint64_t n = as_uint();
  if (n > 0xffffffffULL) {
    throw std::runtime_error(
        "JSON: expected a non-negative 32-bit integer, have " +
        std::to_string(n));
  }
  return static_cast<std::uint32_t>(n);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("string", kind_name());
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array", kind_name());
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object", kind_name());
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JSON: missing key \"" + std::string(key) +
                             "\"");
  }
  return *v;
}

namespace {

/// Recursive-descent parser over a string_view with line/column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::runtime_error("JSON parse error at " + std::to_string(line) +
                             ":" + std::to_string(column) + ": " + message);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept {
    return at_end() ? '\0' : text_[pos_];
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    if (at_end()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const auto& [name, value] : members) {
        if (name == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          if (code > 0x7f) {
            fail("\\u escapes beyond ASCII are not supported");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      fail("invalid value");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    // strtod on the exact token: correctly-rounded, so "0.15" parses to
    // the same double as the C++ literal 0.15 — scenario grids reproduce
    // hand-written bench grids bit-for-bit.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace neatbound::support
