// Flat key→value parameter bags for scenario components (network models,
// adversary strategies).  Factories read their options through typed
// getters; every component declares its accepted key list in the registry,
// and verify_only() flags misspelled or unsupported keys — the same
// never-silently-ignore contract CliArgs applies to command-line flags.
//
// All getters are pure const reads (no consumption bookkeeping): component
// factories run once per seed, concurrently, over a shared Params.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace neatbound::scenario {

class Params {
 public:
  Params() = default;
  /// From a JSON object, minus the keys in `reserved` (the component's
  /// own selector, e.g. "model" or "strategy").  Values must be numbers,
  /// strings or booleans — nested structure is not a parameter.  `where`
  /// names the component object ("network") in getter errors.
  static Params from_object(const support::JsonValue& object,
                            const std::set<std::string>& reserved,
                            std::string where = "");

  /// Typed lookups with a default (support::read_field_or): a value of
  /// the wrong kind throws "<where>.<name>: JSON: expected …".
  [[nodiscard]] double get_number(const std::string& name,
                                  double default_value) const;
  /// get_number constrained to a non-negative integer.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t default_value) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& default_value) const;
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool default_value) const;

  /// Every entry in file order — the serialization view the violation
  /// artifact writer (scenario/artifact.hpp) renders back to JSON.
  [[nodiscard]] const support::JsonValue::Object& entries() const {
    return values_.as_object();
  }

  /// Canonical "key=value;" rendering of every entry in file order —
  /// the piece of a component's identity that adaptive-sweep checkpoint
  /// fingerprints fold in (numbers at full %.17g precision).
  [[nodiscard]] std::string fingerprint_text() const;

  /// Throws std::runtime_error naming every provided key that is not in
  /// `known`.  `where` prefixes the message ("adversary 'x'", …).
  void verify_only(const std::vector<std::string>& known,
                   const std::string& where) const;

 private:
  support::JsonValue values_ = support::JsonValue::make_object({});
  std::string where_;
};

}  // namespace neatbound::scenario
