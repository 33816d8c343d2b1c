// One hostile-input table for the four strict readers that share
// support/json's field layer: scenario specs, sweep checkpoints,
// violation artifacts and round traces.  Every object level of a good
// document gets the same three mutations — each member replaced by a
// value of another JSON kind, an unknown key added, each required key
// removed — and every mutant must be refused with the reader's
// documented std::runtime_error prefix and the offending key named.
// A deterministic seed corpus for a fuzzer over the same readers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "scenario/artifact.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"
#include "support/json.hpp"

namespace neatbound {
namespace {

using support::JsonValue;

/// Compact JSON text for `value`; numbers at full precision.
std::string dump(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return value.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return support::exact_double_repr(value.as_number());
    case JsonValue::Kind::kString:
      return '"' + support::json_escape(value.as_string()) + '"';
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (const JsonValue& item : value.as_array()) {
        if (out.size() > 1) out += ',';
        out += dump(item);
      }
      return out + ']';
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : value.as_object()) {
        if (out.size() > 1) out += ',';
        out += '"' + support::json_escape(key) + "\":" + dump(member);
      }
      return out + '}';
    }
  }
  return "";
}

/// A value of a different JSON kind than `value`.
JsonValue other_kind(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kString: return JsonValue::make_number(1);
    case JsonValue::Kind::kArray: return JsonValue::make_object({});
    case JsonValue::Kind::kObject: return JsonValue::make_array({});
    default: return JsonValue::make_string("x");
  }
}

/// Steps from the document root to an object level: member names, or
/// array indices written as decimal strings.
using Path = std::vector<std::string>;
using ObjectEdit = std::function<void(JsonValue::Object&)>;

/// `value` with `edit` applied to the object at `path`.
JsonValue edited(const JsonValue& value, const Path& path, std::size_t depth,
                 const ObjectEdit& edit) {
  if (value.is_array()) {
    JsonValue::Array items = value.as_array();
    const std::size_t index = std::stoul(path.at(depth));
    items.at(index) = edited(items[index], path, depth + 1, edit);
    return JsonValue::make_array(std::move(items));
  }
  JsonValue::Object members = value.as_object();
  if (depth == path.size()) {
    edit(members);
  } else {
    for (auto& [key, member] : members) {
      if (key == path[depth]) member = edited(member, path, depth + 1, edit);
    }
  }
  return JsonValue::make_object(std::move(members));
}

const JsonValue& at_path(const JsonValue& value, const Path& path) {
  const JsonValue* cursor = &value;
  for (const std::string& step : path) {
    cursor = cursor->is_array() ? &cursor->as_array().at(std::stoul(step))
                                : &support::require_field(*cursor, step, "");
  }
  return *cursor;
}

/// Every member name of the object at `path`, in document order.
std::vector<std::string> keys_of(const JsonValue& root, const Path& path) {
  std::vector<std::string> keys;
  for (const auto& member : at_path(root, path).as_object()) {
    keys.push_back(member.first);
  }
  return keys;
}

/// One object level of a reader's schema.
struct Level {
  Path path;
  /// Keys the reader requires at this level.
  std::vector<std::string> required;
  /// False for free-form component objects, whose extra keys are
  /// parameters checked later by the registry.
  bool closed = true;
  /// Members whose kind is free (component parameters); empty = none.
  std::vector<std::string> any_kind = {};
};

/// A reader under test: parses JSON text and throws its documented error.
struct Reader {
  std::string name;
  std::string good;  ///< a document the reader accepts
  std::function<void(const std::string&)> read;
  std::string prefix;  ///< every error message starts with this
  std::vector<Level> levels;
};

/// The reader's error for `text`, or a test failure when it accepts it.
std::string rejection(const Reader& reader, const std::string& text,
                      const std::string& what) {
  try {
    reader.read(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << reader.name << " accepted " << what << ":\n" << text;
  return "";
}

void expect_rejects(const Reader& reader, const JsonValue& mutant,
                    const std::string& what, const std::string& needle) {
  const std::string message = rejection(reader, dump(mutant), what);
  if (message.empty()) return;
  EXPECT_EQ(message.rfind(reader.prefix, 0), 0u)
      << reader.name << ", " << what << ": " << message;
  EXPECT_NE(message.find(needle), std::string::npos)
      << reader.name << ", " << what << ": expected \"" << needle
      << "\" in: " << message;
}

void run_table(const Reader& reader) {
  ASSERT_NO_THROW(reader.read(reader.good)) << reader.name;
  const JsonValue root = support::parse_json(reader.good);
  for (const Level& level : reader.levels) {
    std::string where;
    for (const std::string& step : level.path) where += "/" + step;
    const JsonValue& object = at_path(root, level.path);
    ASSERT_TRUE(object.is_object()) << reader.name << where;
    for (const auto& [key, member] : object.as_object()) {
      bool free_kind = false;
      for (const std::string& k : level.any_kind) free_kind |= k == key;
      if (free_kind) continue;
      const JsonValue replacement = other_kind(member);
      const JsonValue mutant =
          edited(root, level.path, 0, [&](JsonValue::Object& members) {
            for (auto& entry : members) {
              if (entry.first == key) entry.second = replacement;
            }
          });
      expect_rejects(reader, mutant, where + "/" + key + " wrong kind",
                     key);
    }
    if (level.closed) {
      const JsonValue mutant =
          edited(root, level.path, 0, [](JsonValue::Object& members) {
            members.emplace_back("bogus_key", JsonValue::make_number(0));
          });
      expect_rejects(reader, mutant, where + " unknown key",
                     "unknown key \"bogus_key\"");
    }
    for (const std::string& key : level.required) {
      const JsonValue mutant =
          edited(root, level.path, 0, [&](JsonValue::Object& members) {
            std::erase_if(members, [&](const auto& entry) {
              return entry.first == key;
            });
          });
      expect_rejects(reader, mutant, where + "/" + key + " missing",
                     "missing key \"" + key + "\"");
    }
  }
}

/// A file under the test temp dir, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::path(::testing::TempDir()) / name).string()) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  void write(const std::string& text) const {
    std::ofstream(path_, std::ios::trunc) << text;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(HostileInput, ScenarioSpec) {
  const TempFile file("hostile_spec.json");
  Reader reader;
  reader.name = "scenario spec";
  reader.good = R"({
    "name": "hostile", "title": "t", "description": "d",
    "engine": {"miners": 24, "nu": 0.2, "delta": 4, "rounds": 500, "p": 0.003},
    "axes": [{"name": "nu", "values": [0.1, 0.3]}],
    "hardness": {"mode": "fixed", "c": 2, "multiple": 1},
    "seeds": 3, "base_seed": 99, "violation_t": 6,
    "adaptive": {"min_seeds": 2, "batch": 2, "max_seeds": 8,
                 "half_width": 0.1, "confidence": 0.9},
    "oracle": {"invariants": ["common-prefix"], "common_prefix_t": 5,
               "growth_window": 64, "growth_min_blocks": 1,
               "quality_window": 64, "quality_min_ratio": 0.05,
               "slice_rounds": 16, "max_runs": 10},
    "adversary": {"strategy": "private-withhold", "min_fork_depth": 3},
    "network": {"model": "bursty", "period": 10},
    "report": {"section_by": "nu", "section_label": "nu = {nu:2}",
               "columns": [{"header": "nu", "value": "nu", "decimals": 2}]},
    "meta": {"extra": 7}
  })";
  reader.read = [&file](const std::string& text) {
    file.write(text);
    (void)scenario::load_scenario_file(file.path());
  };
  reader.prefix = file.path() + ": ";
  reader.levels = {
      {{}, {"name"}},
      {{"engine"}, {}},
      {{"axes", "0"}, {"name", "values"}},
      {{"hardness"}, {}},
      {{"adaptive"}, {}},
      {{"oracle"}, {}},
      {{"adversary"}, {}, false, {"min_fork_depth"}},
      {{"network"}, {}, false, {"period"}},
      {{"report"}, {}},
      {{"report", "columns", "0"}, {"value"}},
      {{"meta"}, {}, false},
  };
  run_table(reader);
}

TEST(HostileInput, SweepCheckpoint) {
  const TempFile file("hostile_checkpoint.json");
  exp::SweepCheckpoint checkpoint;
  checkpoint.fingerprint = 0x0123456789abcdefULL;
  checkpoint.waves_done = 2;
  checkpoint.cells.emplace_back();
  checkpoint.cells.back().seeds_done = 4;
  checkpoint.cells.back().summary.violation_depth.add(1.5);
  exp::save_sweep_checkpoint(file.path(), checkpoint);

  Reader reader;
  reader.name = "checkpoint";
  reader.good = slurp(file.path());
  reader.read = [&file](const std::string& text) {
    file.write(text);
    (void)exp::load_sweep_checkpoint(file.path());
  };
  reader.prefix = file.path() + ": ";
  const JsonValue root = support::parse_json(reader.good);
  for (const Path& path : std::vector<Path>{{},
                                            {"cells", "0"},
                                            {"cells", "0", "summary"},
                                            {"cells", "0", "telemetry"}}) {
    reader.levels.push_back({path, keys_of(root, path)});
  }
  run_table(reader);
}

TEST(HostileInput, ViolationArtifact) {
  Reader reader;
  reader.name = "violation artifact";
  reader.good = slurp(std::string(NEATBOUND_FIXTURE_DIR) +
                      "/private_withhold_uniform.json");
  reader.read = [](const std::string& text) {
    (void)scenario::parse_artifact(text);
  };
  reader.prefix = "violation artifact: ";
  const JsonValue root = support::parse_json(reader.good);
  for (const Path& path :
       std::vector<Path>{{}, {"engine"}, {"oracle"}, {"violation"},
                         {"views", "0"}, {"trace", "0"}}) {
    reader.levels.push_back({path, keys_of(root, path)});
  }
  reader.levels.push_back({{"adversary"}, {"strategy"}, false});
  reader.levels.push_back({{"network"}, {"model"}, false});
  run_table(reader);
}

TEST(HostileInput, RoundTrace) {
  sim::RoundRecord record;
  record.round = 1;
  record.honest_mined = 2;
  record.adversary_mined = 1;
  record.mined_by = {3, 7};
  record.delivered = 5;
  record.adoptions = 4;
  record.best_height = 11;
  record.violation_depth = 1;

  Reader reader;
  reader.name = "round trace";
  reader.good = sim::to_jsonl_line(record);
  reader.read = [](const std::string& text) {
    std::istringstream is(text + "\n");
    (void)sim::read_trace_jsonl(is);
  };
  reader.prefix = "trace line 1: ";
  const JsonValue root = support::parse_json(reader.good);
  reader.levels.push_back({Path{}, keys_of(root, {})});
  run_table(reader);
}

}  // namespace
}  // namespace neatbound
