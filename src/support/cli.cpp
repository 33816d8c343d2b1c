#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace neatbound {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fail("expected --flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

void CliArgs::register_flag(const std::string& name, const char* type,
                            std::string default_repr,
                            const std::string& help) {
  for (const FlagInfo& info : registered_) {
    if (info.name == name) return;  // first registration wins
  }
  registered_.push_back({name, type, std::move(default_repr), help});
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& default_value,
                                const std::string& help) {
  register_flag(name, "string",
                default_value.empty() ? "" : "\"" + default_value + "\"",
                help);
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

double CliArgs::parse_double(const std::string& name,
                             const std::string& text) const {
  // std::stod parses a prefix, so "0.25,0.3" would silently become 0.25;
  // any unparsed tail is rejected like parse_uint does.
  try {
    std::size_t parsed = 0;
    const double v = std::stod(text, &parsed);
    if (parsed == text.size()) return v;
  } catch (const std::exception&) {
    // No number or out of range: fails below, like a trailing tail.
  }
  fail("flag --" + name + " expects a number, got '" + text + "'");
}

double CliArgs::get_double(const std::string& name, double default_value,
                           const std::string& help) {
  {
    std::ostringstream repr;
    repr << default_value;
    register_flag(name, "number", repr.str(), help);
  }
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_double(name, it->second);
}

std::uint64_t CliArgs::parse_uint(const std::string& name,
                                  const std::string& text) const {
  // std::stoull wraps negative input instead of failing, so reject a
  // leading '-' up front (skipping the same whitespace set stoull does);
  // parse unsigned directly to keep (INT64_MAX, UINT64_MAX] representable.
  const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
  if (first != std::string::npos && text[first] == '-') {
    fail("flag --" + name + " must be >= 0");
  }
  try {
    std::size_t parsed = 0;
    const std::uint64_t v = std::stoull(text, &parsed);
    if (parsed == text.size()) return v;
  } catch (const std::exception&) {
    // No digits or above 2^64 − 1: fails below, like a trailing tail.
  }
  fail("flag --" + name + " expects an unsigned integer, got '" + text + "'");
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t default_value,
                                const std::string& help) {
  register_flag(name, "uint", std::to_string(default_value), help);
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_uint(name, it->second);
}

std::optional<std::uint64_t> CliArgs::get_opt_uint(const std::string& name,
                                                   const std::string& help) {
  register_flag(name, "uint", "", help);
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return parse_uint(name, it->second);
}

std::optional<double> CliArgs::get_opt_double(const std::string& name,
                                              const std::string& help) {
  register_flag(name, "number", "", help);
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return parse_double(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool default_value,
                       const std::string& help) {
  register_flag(name, "bool", default_value ? "true" : "false", help);
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  fail("flag --" + name + " expects true/false, got '" + it->second + "'");
}

bool CliArgs::has(const std::string& name) const {
  consumed_.insert(name);
  return values_.count(name) > 0;
}

std::string CliArgs::usage() const {
  std::ostringstream os;
  os << "flags:\n";
  std::size_t width = 4;  // at least as wide as "help"
  for (const FlagInfo& info : registered_) {
    width = std::max(width, info.name.size() + info.type.size() + 3);
  }
  for (const FlagInfo& info : registered_) {
    const std::string head = info.name + " <" + info.type + ">";
    os << "  --" << head << std::string(width - head.size() + 2, ' ');
    if (!info.default_repr.empty()) {
      os << "(default: " << info.default_repr << ")";
    }
    if (!info.help.empty()) {
      os << (info.default_repr.empty() ? "" : "  ") << info.help;
    }
    os << '\n';
  }
  os << "  --help" << std::string(width - 4 + 2, ' ')
     << "show this message and exit\n";
  return os.str();
}

bool CliArgs::handle_help(std::ostream& os) const {
  if (!has("help")) return false;
  os << usage();
  return true;
}

void CliArgs::reject_unconsumed() const {
  for (const auto& [name, value] : values_) {
    if (consumed_.count(name) == 0) fail("unknown flag --" + name);
  }
}

void CliArgs::fail(const std::string& message) const {
  std::cerr << "CliArgs: " << message << '\n' << usage();
  std::exit(2);
}

}  // namespace neatbound
