#include "scenario/spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "scenario/report.hpp"
#include "sim/oracle.hpp"

namespace neatbound::scenario {

namespace {

using support::JsonValue;
using support::json_path;
using support::read_element;
using support::read_field;
using support::read_field_or;
using support::reject_unknown_keys;

/// One block's optional fields: `field(key, &JsonValue::as_…, fallback)`.
auto optional_fields(const JsonValue& object, std::string_view where) {
  return [&object, where](const char* key, auto as, auto fallback) {
    return read_field_or(object, key, where, as, fallback);
  };
}

std::vector<AxisSpec> parse_axes(const JsonValue::Array& axes) {
  std::vector<AxisSpec> out;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const std::string where = json_path("axes", i);
    reject_unknown_keys(axes[i], {"name", "values"}, where);
    AxisSpec axis;
    axis.name = read_field(axes[i], "name", where, &JsonValue::as_string);
    if (axis.name.empty()) {
      throw std::runtime_error(where + ": \"name\" must not be empty");
    }
    for (const AxisSpec& existing : out) {
      if (existing.name == axis.name) {
        throw std::runtime_error("duplicate axis \"" + axis.name + "\"");
      }
    }
    // Count axes are cast to the engine's integer fields per grid point,
    // so they go through the same checked readers as the engine block.
    const std::string values_where = json_path(where, "values");
    const JsonValue::Array& values =
        read_field(axes[i], "values", where, &JsonValue::as_array);
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (axis.name == "miners") {
        axis.values.push_back(static_cast<double>(read_element(
            values[j], j, values_where, &JsonValue::as_uint32)));
      } else if (axis.name == "delta" || axis.name == "rounds") {
        axis.values.push_back(static_cast<double>(
            read_element(values[j], j, values_where, &JsonValue::as_uint)));
      } else {
        axis.values.push_back(
            read_element(values[j], j, values_where, &JsonValue::as_number));
      }
    }
    if (axis.values.empty()) {
      throw std::runtime_error("axis \"" + axis.name +
                               "\" needs at least one value");
    }
    out.push_back(std::move(axis));
  }
  return out;
}

AdaptiveSpec parse_adaptive(const JsonValue& adaptive) {
  constexpr const char* kWhere = "adaptive";
  reject_unknown_keys(
      adaptive,
      {"min_seeds", "batch", "max_seeds", "half_width", "confidence"},
      kWhere);
  const auto field = optional_fields(adaptive, kWhere);
  AdaptiveSpec out;
  out.min_seeds = field("min_seeds", &JsonValue::as_uint32, out.min_seeds);
  out.batch = field("batch", &JsonValue::as_uint32, out.batch);
  out.max_seeds = field("max_seeds", &JsonValue::as_uint32, out.max_seeds);
  out.half_width = field("half_width", &JsonValue::as_number, out.half_width);
  out.confidence = field("confidence", &JsonValue::as_number, out.confidence);
  if (out.min_seeds == 0) {
    throw std::runtime_error("adaptive: \"min_seeds\" must be >= 1");
  }
  if (out.batch == 0) {
    throw std::runtime_error("adaptive: \"batch\" must be >= 1");
  }
  if (out.max_seeds < out.min_seeds) {
    throw std::runtime_error(
        "adaptive: \"max_seeds\" must be >= \"min_seeds\"");
  }
  if (out.half_width < 0.0) {
    throw std::runtime_error("adaptive: \"half_width\" must be >= 0");
  }
  if (out.confidence <= 0.0 || out.confidence >= 1.0) {
    throw std::runtime_error("adaptive: \"confidence\" must be in (0,1)");
  }
  return out;
}

OracleSpec parse_oracle(const JsonValue& oracle) {
  constexpr const char* kWhere = "oracle";
  reject_unknown_keys(oracle,
                      {"invariants", "common_prefix_t", "growth_window",
                       "growth_min_blocks", "quality_window",
                       "quality_min_ratio", "slice_rounds", "max_runs"},
                      kWhere);
  OracleSpec out;
  if (oracle.find("invariants") != nullptr) {
    out.invariants.clear();
    const JsonValue::Array& invariants =
        read_field(oracle, "invariants", kWhere, &JsonValue::as_array);
    for (std::size_t i = 0; i < invariants.size(); ++i) {
      std::string name = read_element(invariants[i], i, "oracle.invariants",
                                      &JsonValue::as_string);
      if (!sim::parse_invariant_name(name)) {
        std::string known;
        for (const std::string& candidate : sim::invariant_names()) {
          if (!known.empty()) known += ", ";
          known += candidate;
        }
        throw std::runtime_error("oracle: unknown invariant \"" + name +
                                 "\" (known: " + known + ")");
      }
      for (const std::string& existing : out.invariants) {
        if (existing == name) {
          throw std::runtime_error("oracle: duplicate invariant \"" + name +
                                   "\"");
        }
      }
      out.invariants.push_back(std::move(name));
    }
    if (out.invariants.empty()) {
      throw std::runtime_error("oracle: \"invariants\" must not be empty");
    }
  }
  if (oracle.find("common_prefix_t") != nullptr) {
    out.common_prefix_t =
        read_field(oracle, "common_prefix_t", kWhere, &JsonValue::as_uint);
  }
  const auto field = optional_fields(oracle, kWhere);
  const auto uint = &JsonValue::as_uint;
  out.growth_window = field("growth_window", uint, out.growth_window);
  out.growth_min_blocks =
      field("growth_min_blocks", uint, out.growth_min_blocks);
  out.quality_window = field("quality_window", uint, out.quality_window);
  out.quality_min_ratio =
      field("quality_min_ratio", &JsonValue::as_number, out.quality_min_ratio);
  out.slice_rounds = field("slice_rounds", uint, out.slice_rounds);
  out.max_runs = field("max_runs", uint, out.max_runs);
  // Full arming rules (vacuous thresholds, slice bounds) live in
  // sim::validate_oracle_config, applied when the block resolves to an
  // OracleConfig; here only the window/threshold basics that are wrong
  // in any resolution.
  if (out.growth_window == 0) {
    throw std::runtime_error("oracle: \"growth_window\" must be >= 1");
  }
  if (out.quality_window == 0) {
    throw std::runtime_error("oracle: \"quality_window\" must be >= 1");
  }
  if (out.quality_min_ratio <= 0.0 || out.quality_min_ratio > 1.0) {
    throw std::runtime_error(
        "oracle: \"quality_min_ratio\" must be in (0, 1]");
  }
  if (out.slice_rounds == 0) {
    throw std::runtime_error("oracle: \"slice_rounds\" must be >= 1");
  }
  return out;
}

ReportSpec parse_report(const JsonValue& report) {
  constexpr const char* kWhere = "report";
  reject_unknown_keys(report, {"section_by", "section_label", "columns"},
                      kWhere);
  const auto field = optional_fields(report, kWhere);
  ReportSpec out;
  out.section_by = field("section_by", &JsonValue::as_string, "");
  out.section_label = field("section_label", &JsonValue::as_string, "");
  // A bad hole fails here, before any engine run, not at the first
  // rendered section.
  (void)section_label_holes(out.section_label);
  const JsonValue::Array columns =
      field("columns", &JsonValue::as_array, JsonValue::Array{});
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::string where = json_path("report.columns", i);
    reject_unknown_keys(columns[i], {"header", "value", "decimals"}, where);
    const auto column_field = optional_fields(columns[i], where);
    ColumnSpec column;
    column.value =
        read_field(columns[i], "value", where, &JsonValue::as_string);
    column.header = column_field("header", &JsonValue::as_string, column.value);
    const std::uint64_t decimals =
        column_field("decimals", &JsonValue::as_uint, std::uint64_t{3});
    if (decimals > kMaxReportDecimals) {
      throw std::runtime_error(
          json_path(where, "decimals") + ": " + std::to_string(decimals) +
          " exceeds " + std::to_string(kMaxReportDecimals) +
          ", the significant digits a double carries");
    }
    column.decimals = static_cast<int>(decimals);
    out.columns.push_back(std::move(column));
  }
  if (!out.section_by.empty() && out.section_label.empty()) {
    throw std::runtime_error(
        "report: section_by requires a section_label template");
  }
  return out;
}

}  // namespace

bool ScenarioSpec::has_axis(const std::string& axis_name) const {
  for (const AxisSpec& axis : axes) {
    if (axis.name == axis_name) return true;
  }
  return false;
}

std::size_t ScenarioSpec::grid_size() const {
  std::size_t size = 1;
  for (const AxisSpec& axis : axes) size *= axis.values.size();
  return size;
}

ComponentSpec parse_component(const JsonValue& object, const char* selector,
                              const char* default_kind,
                              const std::string& where) {
  if (!object.is_object()) {
    throw std::runtime_error(where + ": expected a JSON object");
  }
  ComponentSpec component;
  component.kind =
      default_kind == nullptr
          ? read_field(object, selector, where, &JsonValue::as_string)
          : read_field_or(object, selector, where, &JsonValue::as_string,
                          default_kind);
  if (component.kind.empty()) {
    throw std::runtime_error(where + ": \"" + selector +
                             "\" must not be empty");
  }
  component.params = Params::from_object(object, {selector}, where);
  return component;
}

void check_neat_bound_domain(const ScenarioSpec& spec) {
  std::vector<double> nus{spec.nu};
  for (const AxisSpec& axis : spec.axes) {
    if (axis.name == "nu") nus = axis.values;
  }
  const auto bad = std::find_if(nus.begin(), nus.end(), [](double nu) {
    return !(nu > 0.0 && nu < 0.5);
  });
  if (bad == nus.end()) return;
  const auto fail = [&](const std::string& where, const std::string& what) {
    throw std::runtime_error(where + ": " + what +
                             " needs nu in (0, 1/2), have nu = " +
                             support::exact_double_repr(*bad));
  };
  const auto needs_bound = [](const std::string& value) {
    return value == "bound" || value == "multiple";
  };
  if (spec.hardness_mode == "neat-bound-multiple") {
    fail("hardness", "mode \"neat-bound-multiple\"");
  }
  for (std::size_t i = 0; i < spec.report.columns.size(); ++i) {
    const std::string& value = spec.report.columns[i].value;
    if (needs_bound(value)) {
      fail(json_path("report.columns", i), "value \"" + value + "\"");
    }
  }
  for (const std::string& hole :
       section_label_holes(spec.report.section_label)) {
    if (needs_bound(hole)) {
      fail("report.section_label", "hole \"{" + hole + "}\"");
    }
  }
}

ScenarioSpec parse_scenario(const JsonValue& document) {
  reject_unknown_keys(document,
                      {"name", "title", "description", "engine", "axes",
                       "hardness", "seeds", "base_seed", "violation_t",
                       "adaptive", "oracle", "adversary", "network", "report",
                       "meta"},
                      "");
  ScenarioSpec spec;
  spec.name = read_field(document, "name", "", &JsonValue::as_string);
  if (spec.name.empty()) {
    throw std::runtime_error("scenario: \"name\" must not be empty");
  }
  const auto top = optional_fields(document, "");
  spec.title = top("title", &JsonValue::as_string, "");
  spec.description = top("description", &JsonValue::as_string, "");

  if (const JsonValue* engine = document.find("engine")) {
    reject_unknown_keys(*engine, {"miners", "nu", "delta", "rounds", "p"},
                        "engine");
    const auto field = optional_fields(*engine, "engine");
    spec.miners = field("miners", &JsonValue::as_uint32, spec.miners);
    spec.nu = field("nu", &JsonValue::as_number, spec.nu);
    spec.delta = field("delta", &JsonValue::as_uint, spec.delta);
    spec.rounds = field("rounds", &JsonValue::as_uint, spec.rounds);
    spec.p = field("p", &JsonValue::as_number, spec.p);
  }

  spec.axes = parse_axes(top("axes", &JsonValue::as_array, JsonValue::Array{}));

  if (const JsonValue* hardness = document.find("hardness")) {
    reject_unknown_keys(*hardness, {"mode", "c", "multiple"}, "hardness");
    const auto field = optional_fields(*hardness, "hardness");
    spec.hardness_mode =
        field("mode", &JsonValue::as_string, spec.hardness_mode);
    spec.hardness_c = field("c", &JsonValue::as_number, spec.hardness_c);
    spec.hardness_multiple =
        field("multiple", &JsonValue::as_number, spec.hardness_multiple);
  }
  if (spec.hardness_mode != "fixed" && spec.hardness_mode != "c" &&
      spec.hardness_mode != "neat-bound-multiple") {
    throw std::runtime_error("hardness: unknown mode \"" +
                             spec.hardness_mode +
                             "\" (fixed | c | neat-bound-multiple)");
  }
  if (spec.hardness_mode == "c" && spec.hardness_c <= 0.0 &&
      !spec.has_axis("c")) {
    throw std::runtime_error(
        "hardness mode \"c\" needs a \"c\" axis or a positive hardness.c");
  }

  spec.seeds = top("seeds", &JsonValue::as_uint32, spec.seeds);
  if (spec.seeds == 0) {
    throw std::runtime_error("scenario: \"seeds\" must be >= 1");
  }
  spec.base_seed = top("base_seed", &JsonValue::as_uint, spec.base_seed);
  spec.violation_t = top("violation_t", &JsonValue::as_uint, spec.violation_t);

  if (const JsonValue* adaptive = document.find("adaptive")) {
    spec.adaptive = parse_adaptive(*adaptive);
  }

  if (const JsonValue* oracle = document.find("oracle")) {
    spec.oracle = parse_oracle(*oracle);
  }

  if (const JsonValue* adversary = document.find("adversary")) {
    spec.adversary =
        parse_component(*adversary, "strategy", "max-delay", "adversary");
  } else {
    spec.adversary.kind = "max-delay";
  }
  if (const JsonValue* network = document.find("network")) {
    spec.network = parse_component(*network, "model", "strategy", "network");
  } else {
    spec.network.kind = "strategy";
  }

  if (const JsonValue* report = document.find("report")) {
    spec.report = parse_report(*report);
    if (!spec.report.section_by.empty() &&
        !spec.has_axis(spec.report.section_by)) {
      throw std::runtime_error("report: section_by axis \"" +
                               spec.report.section_by + "\" is not an axis");
    }
  }

  check_neat_bound_domain(spec);

  if (const JsonValue* meta = document.find("meta")) {
    for (const auto& member :
         read_field(document, "meta", "", &JsonValue::as_object)) {
      spec.extra_meta.emplace_back(
          member.first,
          read_field(*meta, member.first, "meta", &JsonValue::as_number));
    }
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text) {
  return parse_scenario(support::parse_json(text));
}

ScenarioSpec load_scenario_file(const std::string& path) {
  try {
    return parse_scenario(support::load_json_file(path));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace neatbound::scenario
