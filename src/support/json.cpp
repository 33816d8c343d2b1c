#include "support/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace neatbound::support {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.value_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.value_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.value_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(Array items) {
  JsonValue v;
  v.value_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Object members) {
  JsonValue v;
  v.value_ = std::move(members);
  return v;
}

const char* JsonValue::kind_name() const noexcept {
  switch (kind()) {
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

/// "<where>: <what>", or just `what` at the top level.
[[noreturn]] void throw_at(std::string_view where, const std::string& what) {
  throw std::runtime_error(
      where.empty() ? what : std::string(where) + ": " + what);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("bool", kind_name());
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("number", kind_name());
  return std::get<double>(value_);
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
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("array", kind_name());
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("object", kind_name());
  return std::get<Object>(value_);
}

std::uint64_t JsonValue::as_hash() const {
  const std::string& text = as_string();
  if (text.size() != 18 || !text.starts_with("0x")) {
    throw std::runtime_error("expected an 0x + 16-hex-digit hash, got \"" +
                             text + "\"");
  }
  if (text.find_first_not_of("0123456789abcdef", 2) != std::string::npos) {
    throw std::runtime_error("bad hex digit in \"" + text + "\"");
  }
  std::uint64_t value = 0;
  std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  return value;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const Object* members = std::get_if<Object>(&value_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Elements of the arrays and objects still open, innermost last: each
/// container is built in one exact-size allocation when it closes,
/// instead of growing member by member.
struct ParseStacks {
  JsonValue::Array items;
  JsonValue::Object members;
};

/// Moves stack[first, end) into a vector of exactly that size.
template <typename T>
std::vector<T> pop_from(std::vector<T>& stack, std::size_t first) {
  const auto begin = stack.begin() + static_cast<std::ptrdiff_t>(first);
  std::vector<T> out(std::make_move_iterator(begin),
                     std::make_move_iterator(stack.end()));
  stack.erase(begin, stack.end());
  return out;
}

/// Recursive-descent parser over a string_view with line/column tracking.
class Parser {
 public:
  Parser(std::string_view text, ParseStacks& stacks)
      : text_(text), stacks_(stacks) {
    // A parse that threw leaves its open containers behind.
    stacks_.items.clear();
    stacks_.members.clear();
  }

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
      case '{':
      case '[': {
        // Each level costs parser stack: refuse a hostile depth instead
        // of overflowing it.
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
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
    JsonValue::Object& members = stacks_.members;
    const std::size_t first = members.size();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object({});
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      for (std::size_t i = first; i < members.size(); ++i) {
        if (members[i].first == key) {
          fail("duplicate object key \"" + key + "\"");
        }
      }
      skip_whitespace();
      expect(':');
      // Nested containers push and pop above `first` before this returns.
      JsonValue value = parse_value();
      members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(pop_from(members, first));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array& items = stacks_.items;
    const std::size_t first = items.size();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array({});
    }
    while (true) {
      JsonValue value = parse_value();
      items.push_back(std::move(value));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(pop_from(items, first));
    }
  }

  /// Neither the closing quote, an escape nor a control character.
  static bool is_plain(char c) noexcept {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Take the run of plain characters up to the next special one whole.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && is_plain(text_[pos_])) ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
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
    // grids written as C++ literals bit-for-bit.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  ParseStacks& stacks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  // The stacks keep their capacity between calls, so a reader parsing
  // line after line (the trace reader) allocates only what it returns.
  thread_local ParseStacks stacks;
  return Parser(text, stacks).parse_document();
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.view());
}

std::string json_path(std::string_view where, std::string_view key) {
  return where.empty() ? std::string(key)
                       : std::string(where) + '.' + std::string(key);
}

std::string json_path(std::string_view where, std::size_t index) {
  return std::string(where) + '[' + std::to_string(index) + ']';
}

void reject_unknown_keys(const JsonValue& object,
                         std::span<const std::string_view> known,
                         std::string_view where) {
  if (!object.is_object()) throw_at(where, "expected a JSON object");
  for (const auto& [key, value] : object.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw_at(where, "unknown key \"" + key + "\"");
    }
  }
}

const JsonValue& require_field(const JsonValue& object, std::string_view key,
                               std::string_view where) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    throw_at(where, "missing key \"" + std::string(key) + "\"");
  }
  return *value;
}

void throw_at_path(const std::string& path, const std::exception& cause) {
  throw std::runtime_error(path + ": " + cause.what());
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string exact_double_repr(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string format_hash(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void write_file_atomically(const std::string& path, std::string_view label,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  const std::string prefix = std::string(label) + ": ";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw std::runtime_error(prefix + "cannot open " + tmp +
                               " for writing");
    }
    write(os);
    if (!os.flush()) {
      throw std::runtime_error(prefix + "write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error(prefix + "cannot rename " + tmp + " to " + path);
  }
}

}  // namespace neatbound::support
