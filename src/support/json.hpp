// Minimal, dependency-free JSON layer: every file schema in the repo
// (scenario specs, sweep checkpoints, violation artifacts, round traces)
// reads through it, and their writers share its primitives.
//
// The parser takes the full JSON value grammar with two strictures that
// suit configuration files: duplicate object keys are an error, and key
// order is preserved (scenario meta blocks are emitted in file order).
// String escapes cover the JSON set; \uXXXX is accepted for ASCII code
// points only.  Parse errors throw std::runtime_error with a line:column
// position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace neatbound::support {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array items);
  static JsonValue make_object(Object members);

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] const char* kind_name() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }

  // Checked accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// as_number, additionally required to be a non-negative integer that
  /// fits the return type exactly.
  [[nodiscard]] std::uint64_t as_uint() const;
  /// as_uint, additionally required to fit 32 bits (no silent narrowing).
  [[nodiscard]] std::uint32_t as_uint32() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  /// as_string, additionally required to be a format_hash rendering.
  [[nodiscard]] std::uint64_t as_hash() const;

  /// Object member lookup; nullptr when absent (or not an object).
  /// require_field is the throwing form.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  // One alternative per Kind, in Kind order, so index() is the kind.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

/// Deepest array/object nesting parse_json accepts.  Every reader's
/// documents nest a few levels; the cap keeps a hostile one from
/// exhausting the stack of the recursive parser.
inline constexpr std::size_t kMaxJsonDepth = 1024;

/// Parses one JSON document; trailing non-whitespace and nesting deeper
/// than kMaxJsonDepth are errors.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads and parses a file: "cannot open <path>" when unreadable; parse
/// errors carry no path, so each reader names the file in its own format.
[[nodiscard]] JsonValue load_json_file(const std::string& path);

// --- Field reads ------------------------------------------------------------
// `where` names the enclosing object ("engine", "views[3]"; "" at the top)
// and errors are std::runtime_error naming "<where>.<key>"; their text is
// only built on failure, since the trace reader runs these per line.

/// "<where>.<key>" and "<where>[<index>]".
[[nodiscard]] std::string json_path(std::string_view where,
                                    std::string_view key);
[[nodiscard]] std::string json_path(std::string_view where,
                                    std::size_t index);

/// "<where>: expected a JSON object" / "<where>: unknown key \"k\"".
void reject_unknown_keys(const JsonValue& object,
                         std::span<const std::string_view> known,
                         std::string_view where);
inline void reject_unknown_keys(const JsonValue& object,
                                std::initializer_list<std::string_view> known,
                                std::string_view where) {
  reject_unknown_keys(object, std::span(known.begin(), known.size()), where);
}

/// The member `key`; "<where>: missing key \"key\"" when absent.
[[nodiscard]] const JsonValue& require_field(const JsonValue& object,
                                             std::string_view key,
                                             std::string_view where);

/// Rethrows `cause` as "<path>: <cause>": the reads' failure path.
[[noreturn]] void throw_at_path(const std::string& path,
                                const std::exception& cause);

/// One of JsonValue's checked accessors (&JsonValue::as_uint, …).
template <typename T>
using JsonAccessor = T (JsonValue::*)() const;

/// Required field read through `as`: a wrong kind throws
/// "<where>.<key>: JSON: expected …".
template <typename T>
T read_field(const JsonValue& object, std::string_view key,
             std::string_view where, JsonAccessor<T> as) {
  const JsonValue& value = require_field(object, key, where);
  try {
    return (value.*as)();
  } catch (const std::runtime_error& e) {
    throw_at_path(json_path(where, key), e);
  }
}

/// Optional field: `fallback` when absent, else read_field.
template <typename T>
std::remove_cvref_t<T> read_field_or(
    const JsonValue& object, std::string_view key, std::string_view where,
    JsonAccessor<T> as, std::type_identity_t<std::remove_cvref_t<T>> fallback) {
  if (object.find(key) == nullptr) return fallback;
  return read_field(object, key, where, as);
}

/// Entry `index` of the array at `where`, read through `as`.
template <typename T>
T read_element(const JsonValue& element, std::size_t index,
               std::string_view where, JsonAccessor<T> as) {
  try {
    return (element.*as)();
  } catch (const std::runtime_error& e) {
    throw_at_path(json_path(where, index), e);
  }
}

// --- Writers ----------------------------------------------------------------

/// String-body escaping: quotes, backslashes, control characters.
[[nodiscard]] std::string json_escape(std::string_view text);

/// %.17g: parse_json's correctly-rounded strtod gets the exact bits back.
[[nodiscard]] std::string exact_double_repr(double value);

/// "0x" + 16 lowercase hex digits (JsonValue::as_hash is the inverse):
/// 64-bit hashes exceed the double-exact range, so they travel as strings.
[[nodiscard]] std::string format_hash(std::uint64_t value);

/// `write` fills "<path>.tmp", which is flushed and renamed over `path`,
/// so a kill mid-write leaves the previous file whole.  Failures throw
/// std::runtime_error "<label>: cannot open …" (or write, rename).
void write_file_atomically(const std::string& path, std::string_view label,
                           const std::function<void(std::ostream&)>& write);

}  // namespace neatbound::support
