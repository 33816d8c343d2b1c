// scenario_bench: one workload of the scenario benchmark, in process.
//
//   scenario_bench --workload W --seed N --seconds S --trace 0|1
//                  --work DIR [--pins FILE] [--toy] [--setup-only]
//
// Writes the workload's specs (generated from the seed) under DIR, then
// repeats whole units (load → resolve → sweep → report → checks) on one
// thread until S seconds have passed, and prints one JSON object:
//   {"digest", "correct", "attempted", "failed", "metrics", "failures",
//    "unit_wall_s"}
// --trace 0 reports the end-to-end metrics except setup_s (the caller
// measures that in fresh processes via --setup-only).  --trace 1
// alternates untraced and traced units, then runs the counting pass and
// the unit-cost replays, and reports the per-layer metrics.
//
// An operation is one engine run; it fails if its unit throws or misses
// an output check: the summary digest must repeat across units, equal
// the traced pass's, and equal the pinned digest when --pins has one for
// this (workload, seed).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "scenario/registry.hpp"
#include "specs.hpp"
#include "support/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  WorkloadKind kind = WorkloadKind::kDenseGrid;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string pins;
  bool toy = false;
  bool setup_only = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.kind = parse_workload(value());
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = t == "1";
    } else if (arg == "--work") {
      o.work = value();
    } else if (arg == "--pins") {
      o.pins = value();
    } else if (arg == "--toy") {
      o.toy = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || o.work.empty()) {
    throw std::invalid_argument("--workload and --work are required");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The pinned digest of (workload, seed), if the pin file has one.  Toy
/// runs look under "<workload>:toy".
std::optional<std::string> pinned_digest(const Options& o) {
  if (o.pins.empty()) return std::nullopt;
  const auto doc = neatbound::support::load_json_file(o.pins);
  const std::string key =
      std::string(workload_name(o.kind)) + (o.toy ? ":toy" : "");
  const auto* workload = doc.find(key);
  if (workload == nullptr) return std::nullopt;
  const auto* entry = workload->find(std::to_string(o.seed));
  if (entry == nullptr) return std::nullopt;
  return entry->as_string();
}

std::vector<std::string> write_specs(const Options& o,
                                     const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (const SpecFile& spec : workload_specs(o.kind, o.seed, o.toy)) {
    const std::string path = dir + "/" + spec.name + ".json";
    std::ofstream os(path, std::ios::trunc);
    os << spec.text;
    if (!os) throw std::runtime_error("cannot write " + path);
    paths.push_back(path);
  }
  return paths;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::string>& failures,
                  std::uint64_t digest, const std::vector<double>& unit_walls) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"digest\": \"" << hex(digest) << "\", \"correct\": "
     << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::string text;
    for (const char ch : failures[i]) {
      if (ch == '"' || ch == '\\') text += '\\';
      text += (ch == '\n') ? ' ' : ch;
    }
    os << (i ? ", " : "") << "\"" << text << "\"";
  }
  os << "], \"unit_wall_s\": [";
  for (std::size_t i = 0; i < unit_walls.size(); ++i) {
    os << (i ? ", " : "") << unit_walls[i];
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

/// Digest checks shared by both modes: every unit must repeat the
/// reference digest, which must equal the pin when there is one.  A unit
/// that misses counts all its runs failed.
void check_digests(std::vector<UnitResult>& units, std::uint64_t reference,
                   const std::optional<std::string>& pin) {
  if (pin && *pin != hex(reference)) {
    for (UnitResult& u : units) {
      u.failures.push_back("digest " + hex(reference) + " != pinned " + *pin);
      u.failed_runs = u.engine_runs;
    }
    return;
  }
  for (UnitResult& u : units) {
    if (u.digest != reference) {
      u.failures.push_back("digest " + hex(u.digest) + " != first unit's " +
                           hex(reference));
      u.failed_runs = u.engine_runs;
    }
  }
}

int run(const Options& o) {
  const std::string base = o.work + "/" + workload_name(o.kind);
  const std::vector<std::string> paths = write_specs(o, base + "/specs");

  if (o.setup_only) {
    const auto start = Clock::now();
    (void)setup_specs(paths, neatbound::scenario::ScenarioRegistry::builtin(),
                      nullptr);
    const double s =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::cout.precision(17);
    std::cout << "{\"setup_s\": " << s << "}" << std::endl;
    return 0;
  }

  const std::string out_dir = base + "/out";
  std::filesystem::create_directories(out_dir);
  const std::optional<std::string> pin = pinned_digest(o);

  std::vector<UnitResult> plain;
  std::vector<UnitResult> traced;
  Tracer tracer;
  struct TracedUnit {
    std::uint32_t id;
    std::uint64_t acts;
    double act_s;
    std::uint64_t oracle_rounds;
    double oracle_s;
    double trace_write_s;
  };
  std::vector<TracedUnit> traced_meta;
  std::vector<Job> last_jobs;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  do {
    plain.push_back(run_unit(o.kind, paths, out_dir, nullptr));
    if (o.trace) {
      tracer.begin_unit();
      tracer.acts = 0;
      tracer.act_ns = 0;
      tracer.oracle_rounds = 0;
      tracer.oracle_ns = 0;
      tracer.trace_write_ns = 0;
      tracer.jobs.clear();
      traced.push_back(run_unit(o.kind, paths, out_dir, &tracer));
      traced_meta.push_back({tracer.unit(), tracer.acts,
                             static_cast<double>(tracer.act_ns) * 1e-9,
                             tracer.oracle_rounds,
                             static_cast<double>(tracer.oracle_ns) * 1e-9,
                             static_cast<double>(tracer.trace_write_ns) *
                                 1e-9});
      last_jobs = tracer.jobs;
    }
  } while (elapsed() < o.seconds);

  const std::uint64_t reference = plain.front().digest;
  check_digests(plain, reference, pin);
  check_digests(traced, reference, pin);
  if (!tracer.error.empty()) {
    for (UnitResult& u : traced) {
      u.failures.push_back("tracer: " + tracer.error);
      u.failed_runs = u.engine_runs;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  for (const auto* set : {&plain, &traced}) {
    for (const UnitResult& u : *set) {
      attempted += u.engine_runs;
      failed += u.failed_runs;
      for (const std::string& f : u.failures) {
        if (std::find(failures.begin(), failures.end(), f) == failures.end()) {
          failures.push_back(f);
        }
      }
    }
  }

  const auto collect = [](const std::vector<UnitResult>& units, auto field) {
    std::vector<double> out;
    for (const UnitResult& u : units) out.push_back(field(u));
    return out;
  };
  std::vector<Metric> metrics;
  if (!o.trace) {
    // Unit times are summarised by their 90th percentile, not the median:
    // on a shared host the contended speed recurs in nearly every run
    // while faster phases come and go, so the upper tail repeats from run
    // to run and the median does not (perfbench/STEADINESS.md).
    metrics.push_back(
        {"wall_s", quantile(collect(plain, [](const UnitResult& u) {
           return u.wall_s;
         }), 0.9),
         "s"});
    metrics.push_back(
        {"rounds_per_s", quantile(collect(plain, [](const UnitResult& u) {
           return static_cast<double>(u.rounds) / u.wall_s;
         }), 0.1),
         "1/s"});
    metrics.push_back(
        {"engine_runs", median(collect(plain, [](const UnitResult& u) {
           return static_cast<double>(u.engine_runs);
         })),
         "count"});
    metrics.push_back(
        {"peak_rss_mb", median(collect(plain, [](const UnitResult& u) {
           return u.run_rss_mb;
         })),
         "MB"});
  } else {
    // Per-layer numbers: medians over the traced units for times, the
    // (deterministic) last unit for counts.
    const UnitResult& last = traced.back();
    const auto span_median = [&](const char* name) {
      std::vector<double> v;
      for (const TracedUnit& t : traced_meta) v.push_back(tracer.total_s(name, t.id));
      return median(v);
    };
    const auto meta_median = [&](auto field) {
      std::vector<double> v;
      for (const TracedUnit& t : traced_meta) v.push_back(field(t));
      return median(v);
    };
    std::vector<double> run_ms;
    for (const double d : tracer.durations("sim.run", traced_meta.back().id)) {
      run_ms.push_back(d * 1e3);
    }
    std::vector<double> exp_self;
    for (const TracedUnit& t : traced_meta) {
      exp_self.push_back(tracer.self_s("exp.sweep", t.id));
    }
    const RoundCounts counts = o.kind == WorkloadKind::kObservedMix
                                   ? last.observed
                                   : count_jobs(last_jobs);
    const UnitCosts costs = measure_unit_costs(last_jobs, counts);
    const double run_s = span_median("sim.run");
    const double act_s =
        meta_median([](const TracedUnit& t) { return t.act_s; });
    const double oracle_s =
        meta_median([](const TracedUnit& t) { return t.oracle_s; });
    const double plain_wall = median(collect(plain, [](const UnitResult& u) {
      return u.wall_s;
    }));
    const double traced_wall = median(collect(traced, [](const UnitResult& u) {
      return u.wall_s;
    }));
    const auto rounds = static_cast<double>(counts.rounds);
    const auto active = static_cast<double>(counts.active);
    const auto blocks = static_cast<double>(counts.blocks);
    metrics = {
        {"scenario.load_s", span_median("scenario.load"), "s"},
        {"scenario.resolve_s", span_median("scenario.resolve"), "s"},
        {"scenario.report_s", span_median("scenario.report"), "s"},
        {"scenario.artifact_write_s", span_median("scenario.artifact_write"),
         "s"},
        {"scenario.artifact_load_s", span_median("scenario.artifact_load"),
         "s"},
        {"scenario.replay_s", span_median("scenario.replay"), "s"},
        {"scenario.artifact_bytes", static_cast<double>(last.artifact_bytes),
         "bytes"},
        {"exp.sweep_s", span_median("exp.sweep"), "s"},
        {"exp.self_s", median(exp_self), "s"},
        {"exp.waves", static_cast<double>(last.waves), "count"},
        {"sim.run_s", run_s, "s"},
        {"sim.run_ms_p50", quantile(run_ms, 0.5), "ms"},
        {"sim.run_ms_p90", quantile(run_ms, 0.9), "ms"},
        {"sim.ns_per_round", rounds > 0 ? run_s * 1e9 / rounds : 0.0, "ns"},
        {"sim.ns_per_active_round", active > 0 ? run_s * 1e9 / active : 0.0,
         "ns"},
        {"sim.rounds", rounds, "count"},
        {"sim.rounds_active", active, "count"},
        {"sim.active_frac", rounds > 0 ? active / rounds : 0.0, "ratio"},
        {"sim.blocks", blocks, "count"},
        {"sim.deliveries", static_cast<double>(counts.deliveries), "count"},
        {"sim.deliveries_per_block",
         blocks > 0 ? static_cast<double>(counts.deliveries) / blocks : 0.0,
         "ratio"},
        {"sim.adoptions", static_cast<double>(counts.adoptions), "count"},
        {"sim.adversary.acts", static_cast<double>(traced_meta.back().acts),
         "count"},
        {"sim.adversary.act_s", act_s, "s"},
        {"sim.oracle.rounds",
         static_cast<double>(traced_meta.back().oracle_rounds), "count"},
        {"sim.oracle.observe_s", oracle_s, "s"},
        {"sim.trace.write_s",
         meta_median([](const TracedUnit& t) { return t.trace_write_s; }),
         "s"},
        {"sim.trace.read_s", span_median("sim.trace.read"), "s"},
        {"sim.trace.bytes", static_cast<double>(last.trace_bytes), "bytes"},
        {"support.crng.block_ns", costs.crng_block_ns, "ns"},
        {"sim.draws.gap_take_ns", costs.gap_take_ns, "ns"},
        {"net.calendar.msg_ns", costs.calendar_msg_ns, "ns"},
        {"sim.miner_view.deliver_fresh_ns", costs.deliver_fresh_ns, "ns"},
        {"sim.miner_view.deliver_dup_ns", costs.deliver_dup_ns, "ns"},
        {"protocol.common_ancestor_ns", costs.common_ancestor_ns, "ns"},
        {"sim.metrics.observe_round_ns", costs.observe_round_ns, "ns"},
        {"sim.modelled_frac",
         run_s > 0 ? modelled_seconds(last_jobs, counts, costs,
                                      act_s + oracle_s) / run_s
                   : 0.0,
         "ratio"},
        {"sim.run_rss_max_mb",
         max_of(collect(traced, [](const UnitResult& u) {
           return u.max_run_rss_mb;
         })),
         "MB"},
        {"trace.overhead_frac",
         plain_wall > 0 ? traced_wall / plain_wall - 1.0 : 0.0, "ratio"},
    };
    std::ofstream spans(base + "/spans.jsonl", std::ios::trunc);
    tracer.write_jsonl(spans);
  }
  print_result(failed == 0, attempted, failed, metrics, failures, reference,
               collect(plain, [](const UnitResult& u) { return u.wall_s; }));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "scenario_bench: " << e.what() << "\n";
    return 2;
  }
}
