// Tiny command-line flag parser for bench harnesses and examples.
// Supports --name=value and --name value; unknown flags are an error so
// typos never silently fall back to defaults.
//
// Every typed getter registers its flag (name, type, default, optional
// help text), so usage output is generated automatically:
//   * `--help` → handle_help() prints the registered flags and returns
//     true (callers return 0);
//   * every command-line error — a token that is not a flag, a value of
//     the wrong type, an unknown flag found by reject_unconsumed() — takes
//     one path, fail(): the error and the usage text on stderr, then exit
//     status 2, so a typo'd invocation shows what would have worked.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace neatbound {

class CliArgs {
 public:
  /// Parses argv; a token that is not a --flag fails (see fail()).
  CliArgs(int argc, const char* const* argv);

  /// Typed getters with defaults; record which flags were consumed and
  /// register the flag for usage output.  `help` is an optional one-line
  /// description shown by --help.  A value that does not parse as the
  /// type fails (see fail()).
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& default_value,
                                       const std::string& help = "");
  [[nodiscard]] double get_double(const std::string& name,
                                  double default_value,
                                  const std::string& help = "");
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t default_value,
                                       const std::string& help = "");
  [[nodiscard]] bool get_bool(const std::string& name, bool default_value,
                              const std::string& help = "");

  /// Optional-valued getters for flags whose absence means "use another
  /// source" (a config file, a spec default).  Registered without a
  /// default value, so --help shows none.
  [[nodiscard]] std::optional<std::uint64_t> get_opt_uint(
      const std::string& name, const std::string& help = "");
  [[nodiscard]] std::optional<double> get_opt_double(
      const std::string& name, const std::string& help = "");

  /// True if the flag was provided.  Probing counts as consumption, so a
  /// flag handled only through has() does not trip reject_unconsumed().
  [[nodiscard]] bool has(const std::string& name) const;

  /// Usage text generated from every getter call so far: one line per
  /// registered flag with its type, default and help text.
  [[nodiscard]] std::string usage() const;

  /// If --help was passed, prints usage to `os` and returns true (the
  /// caller should exit successfully).  Call after all getters so the
  /// flag registry is complete, before reject_unconsumed().
  [[nodiscard]] bool handle_help(std::ostream& os) const;

  /// Fails if any provided flag was never consumed by a getter — catches
  /// misspelled flags.  Call after all getters, so the usage text lists
  /// every known flag.
  void reject_unconsumed() const;

  /// Prints "CliArgs: <message>" and the usage text to stderr and exits
  /// with status 2: the one failure path for command-line errors, open
  /// to callers that check flag values further (exp::parse_bench_options).
  [[noreturn]] void fail(const std::string& message) const;

 private:
  struct FlagInfo {
    std::string name;
    std::string type;
    std::string default_repr;
    std::string help;
  };
  void register_flag(const std::string& name, const char* type,
                     std::string default_repr, const std::string& help);
  [[nodiscard]] double parse_double(const std::string& name,
                                    const std::string& text) const;
  [[nodiscard]] std::uint64_t parse_uint(const std::string& name,
                                         const std::string& text) const;

  std::map<std::string, std::string> values_;
  /// mutable so the const probe has() can record consumption too.
  mutable std::set<std::string> consumed_;
  std::vector<FlagInfo> registered_;  ///< in first-use order
};

}  // namespace neatbound
