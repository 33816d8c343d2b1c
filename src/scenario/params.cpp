#include "scenario/params.hpp"

#include <algorithm>
#include <stdexcept>


namespace neatbound::scenario {

using support::JsonValue;
using support::read_field_or;

Params Params::from_object(const JsonValue& object,
                           const std::set<std::string>& reserved,
                           std::string where) {
  JsonValue::Object members;
  for (const auto& [key, value] : object.as_object()) {
    if (reserved.count(key) > 0) continue;
    if (!value.is_number() && !value.is_string() && !value.is_bool()) {
      throw std::runtime_error("parameter \"" + key +
                               "\" must be a number, string or boolean");
    }
    members.emplace_back(key, value);
  }
  Params params;
  params.values_ = JsonValue::make_object(std::move(members));
  params.where_ = std::move(where);
  return params;
}

double Params::get_number(const std::string& name,
                          double default_value) const {
  return read_field_or(values_, name, where_, &JsonValue::as_number,
                       default_value);
}

std::uint64_t Params::get_uint(const std::string& name,
                               std::uint64_t default_value) const {
  return read_field_or(values_, name, where_, &JsonValue::as_uint,
                       default_value);
}

std::string Params::get_string(const std::string& name,
                               const std::string& default_value) const {
  return read_field_or(values_, name, where_, &JsonValue::as_string,
                       default_value);
}

bool Params::get_bool(const std::string& name, bool default_value) const {
  return read_field_or(values_, name, where_, &JsonValue::as_bool,
                       default_value);
}

std::string Params::fingerprint_text() const {
  std::string out;
  for (const auto& [key, value] : entries()) {
    out += key;
    out += '=';
    if (value.is_number()) {
      out += support::exact_double_repr(value.as_number());
    } else if (value.is_bool()) {
      out += value.as_bool() ? "true" : "false";
    } else {
      out += value.as_string();
    }
    out += ';';
  }
  return out;
}

void Params::verify_only(const std::vector<std::string>& known,
                         const std::string& where) const {
  std::string unknown;
  for (const auto& [key, value] : entries()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "\"" + key + "\"";
    }
  }
  if (!unknown.empty()) {
    std::string accepted;
    for (const std::string& k : known) {
      if (!accepted.empty()) accepted += ", ";
      accepted += k;
    }
    throw std::runtime_error(
        where + ": unknown parameter(s) " + unknown +
        (known.empty() ? " (this component takes no parameters)"
                       : " (accepted: " + accepted + ")"));
  }
}

}  // namespace neatbound::scenario
