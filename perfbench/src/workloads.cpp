#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "exp/bench_io.hpp"
#include "scenario/artifact.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "sim/oracle.hpp"
#include "sim/trace.hpp"
#include "stats/intervals.hpp"

namespace perfbench {

namespace sc = neatbound::scenario;
namespace sim = neatbound::sim;
namespace exp = neatbound::exp;

namespace {

/// FNV-1a over the exact bit patterns of the summary fields.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const neatbound::stats::RunningStats& stats) {
    const auto state = stats.state();
    add(state.count);
    add(state.mean);
    add(state.m2);
    add(state.min);
    add(state.max);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest_cell(Digest& digest, const exp::SweepCell& cell) {
  digest.add(static_cast<std::uint64_t>(cell.point.index()));
  for (std::size_t axis = 0; axis < cell.point.axis_count(); ++axis) {
    digest.add(cell.point.value(axis));
  }
  const sim::EngineConfig& engine = cell.config.engine;
  digest.add(static_cast<std::uint64_t>(engine.miner_count));
  digest.add(engine.adversary_fraction);
  digest.add(engine.p);
  digest.add(engine.delta);
  digest.add(engine.rounds);
  digest.add(cell.config.base_seed);
  const sim::ExperimentSummary& s = cell.summary;
  for (const auto* stats :
       {&s.convergence_opportunities, &s.adversary_blocks, &s.honest_blocks,
        &s.violation_depth, &s.max_reorg_depth, &s.max_divergence,
        &s.disagreement_rounds, &s.chain_growth, &s.chain_quality,
        &s.best_height, &s.violation_exceeds_t}) {
    digest.add(*stats);
  }
}

void digest_violation(Digest& digest, const sc::ViolationArtifact& artifact) {
  const sim::OracleViolation& v = artifact.violation;
  digest.add(static_cast<std::uint64_t>(v.kind));
  digest.add(v.round);
  digest.add(v.measured);
  digest.add(v.bound);
  digest.add(static_cast<std::uint64_t>(v.view_a));
  digest.add(static_cast<std::uint64_t>(v.view_b));
  digest.add(artifact.engine.seed);
  for (const sim::ViewSnapshot& view : artifact.views) {
    digest.add(static_cast<std::uint64_t>(view.tip));
    digest.add(view.hash);
  }
}

/// Routes std::cout into a file for the lifetime of the object, so the
/// report's table sink writes where the CLI's stdout would go.
class CoutToFile {
 public:
  explicit CoutToFile(const std::string& path) : file_(path) {
    if (!file_) throw std::runtime_error("cannot open " + path);
    old_ = std::cout.rdbuf(file_.rdbuf());
  }
  ~CoutToFile() { std::cout.rdbuf(old_); }
  CoutToFile(const CoutToFile&) = delete;
  CoutToFile& operator=(const CoutToFile&) = delete;

 private:
  std::ofstream file_;
  std::streambuf* old_ = nullptr;
};

/// The CLI's report sinks: stdout table (redirected) plus a JSON file.
template <typename Render>
void write_report(const sc::ScenarioSpec& spec, const std::string& out_dir,
                  Tracer* tracer, Render&& render) {
  const Scoped span(tracer, "scenario.report");
  const CoutToFile table(out_dir + "/" + spec.name + ".report.txt");
  exp::BenchOptions io;
  io.threads = 1;
  io.json_path = out_dir + "/" + spec.name + ".report.json";
  exp::BenchReporter report(spec.name, io);
  sc::stamp_meta(spec, report);
  render(report);
  report.finish();
}

bool same_record(const sim::RoundRecord& a, const sim::RoundRecord& b) {
  return a.round == b.round && a.honest_mined == b.honest_mined &&
         a.adversary_mined == b.adversary_mined && a.mined_by == b.mined_by &&
         a.delivered == b.delivered && a.adoptions == b.adoptions &&
         a.best_height == b.best_height &&
         a.violation_depth == b.violation_depth;
}

/// Writes through a BoundedTraceWriter and keeps a copy of every record
/// for the read-back comparison; time inside the writer is accumulated.
class TeeSink final : public sim::RoundTraceSink {
 public:
  TeeSink(std::ostream& os, Tracer* tracer)
      : writer_(os, sim::TraceBounds{}), tracer_(tracer) {}
  void on_round(const sim::RoundRecord& record) override {
    kept_.push_back(record);
    const std::int64_t start = tracer_ ? now_ns() : 0;
    writer_.on_round(record);
    if (tracer_) tracer_->trace_write_ns += now_ns() - start;
  }
  [[nodiscard]] const std::vector<sim::RoundRecord>& kept() const {
    return kept_;
  }

 private:
  sim::BoundedTraceWriter writer_;
  Tracer* tracer_;
  std::vector<sim::RoundRecord> kept_;
};

/// One sweep worker: multi-threaded sweeps spread 2-4x wider run to run.
sc::ScenarioRunOptions single_thread() {
  sc::ScenarioRunOptions options;
  options.threads = 1;
  return options;
}

std::uint64_t budget_runs(const sc::ScenarioSpec& spec) {
  const std::uint64_t per_cell =
      spec.adaptive ? spec.adaptive->min_seeds : spec.seeds;
  return static_cast<std::uint64_t>(spec.grid_size()) * per_cell;
}

void fixed_sweep(const sc::ScenarioSpec& spec,
                 const sc::ScenarioRegistry& registry,
                 const std::string& out_dir, Tracer* tracer, Digest& digest,
                 UnitResult& unit) {
  std::vector<exp::SweepCell> cells;
  {
    const Scoped span(tracer, "exp.sweep");
    cells = sc::run_scenario(spec, registry, single_thread());
  }
  write_report(spec, out_dir, tracer, [&](exp::BenchReporter& report) {
    sc::render_report(spec, cells, report);
  });
  for (const exp::SweepCell& cell : cells) {
    digest_cell(digest, cell);
    unit.engine_runs += cell.config.seeds;
    unit.rounds += cell.config.engine.rounds * cell.config.seeds;
  }
  unit.waves += 1;
}

void adaptive_sweep(const sc::ScenarioSpec& spec,
                    const sc::ScenarioRegistry& registry,
                    const std::string& out_dir, Tracer* tracer,
                    Digest& digest, UnitResult& unit) {
  exp::AdaptiveSweepResult result;
  {
    const Scoped span(tracer, "exp.sweep");
    result = sc::run_scenario_adaptive(spec, registry, single_thread());
  }
  write_report(spec, out_dir, tracer, [&](exp::BenchReporter& report) {
    report.set_meta_number("engine_runs",
                           static_cast<double>(result.engine_runs));
    report.set_meta_number("waves", static_cast<double>(result.waves));
    sc::render_adaptive_report(spec, result.cells, report);
  });
  const double z = neatbound::stats::z_for_confidence(spec.adaptive->confidence);
  bool precise = result.complete;
  for (const exp::AdaptiveCell& cell : result.cells) {
    digest_cell(digest, cell.cell);
    digest.add(static_cast<std::uint64_t>(cell.seeds_used));
    digest.add(cell.violations);
    unit.rounds += cell.cell.config.engine.rounds * cell.seeds_used;
    const double half = neatbound::stats::wilson_half_width(
        cell.violations, cell.seeds_used, z);
    if (cell.seeds_used != spec.adaptive->max_seeds &&
        !(half <= spec.adaptive->half_width)) {
      precise = false;
    }
  }
  unit.engine_runs += result.engine_runs;
  unit.waves += result.waves;
  if (!precise) {
    unit.failures.push_back(spec.name +
                            ": a cell stopped above the half-width target "
                            "before max_seeds");
    unit.failed_runs += result.engine_runs;
  }
}

/// Every (cell × seed) run with an armed InvariantOracle as its observer,
/// in the falsification scan's cell-major, seed-ascending order, folded
/// with the runner's own accumulator.  The first violation is frozen,
/// written, reloaded and replayed; one run is traced to JSONL and read
/// back.  Checks failing here fail this spec's runs.  The replay and the
/// traced run build through `untimed`, so their engine time stays out of
/// the sweep's "sim.run" spans.
void observed_sweep(const sc::ScenarioSpec& spec,
                    const sc::ScenarioRegistry& registry,
                    const sc::ScenarioRegistry& untimed,
                    const std::string& out_dir, Tracer* tracer,
                    Digest& digest, UnitResult& unit) {
  const sim::OracleConfig oracle_config = sc::resolve_oracle_config(spec);
  const exp::SweepGrid grid = sc::build_grid(spec);
  std::vector<exp::SweepCell> cells;
  std::optional<sc::ViolationArtifact> artifact;
  std::uint64_t runs = 0;
  std::vector<std::string> failures;
  {
    const Scoped span(tracer, "observed.sweep");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      exp::GridPoint point = grid.point(i);
      sim::ExperimentConfig config = sc::build_config(spec, point);
      exp::SweepCell cell{std::move(point), config, {}};
      for (std::uint32_t k = 0; k < config.seeds; ++k) {
        sim::EngineConfig engine_config = config.engine;
        engine_config.seed = config.base_seed + k;
        sim::InvariantOracle oracle(oracle_config);
        sim::ExecutionEngine engine(
            engine_config,
            registry.make_adversary(spec.network.kind, spec.network.params,
                                    spec.adversary.kind,
                                    spec.adversary.params, engine_config));
        sim::RunResult result;
        if (tracer) {
          result = engine.run([&](const sim::ExecutionEngine& e,
                                  std::uint64_t round) {
            const std::int64_t start = now_ns();
            oracle.observe(e, round);
            tracer->oracle_ns += now_ns() - start;
            ++tracer->oracle_rounds;
            count_round(e, unit.observed);
          });
        } else {
          result = engine.run(oracle.observer());
        }
        ++runs;
        unit.rounds += engine_config.rounds;
        // The oracle's per-round depth maximum is, by construction, the
        // tracker's violation depth over the same rounds.
        if (oracle.max_round_depth() != result.violation_depth) {
          failures.push_back(spec.name + ": oracle depth " +
                             std::to_string(oracle.max_round_depth()) +
                             " != run violation depth " +
                             std::to_string(result.violation_depth));
        }
        if (!artifact && oracle.violated()) {
          artifact = sc::build_artifact(engine_config, spec.violation_t,
                                        spec.adversary, spec.network, oracle);
        }
        sim::accumulate_run(cell.summary, result, spec.violation_t);
      }
      cells.push_back(std::move(cell));
    }
  }
  write_report(spec, out_dir, tracer, [&](exp::BenchReporter& report) {
    sc::render_report(spec, cells, report);
  });
  for (const exp::SweepCell& cell : cells) digest_cell(digest, cell);

  if (artifact) {
    digest_violation(digest, *artifact);
    const std::string path = out_dir + "/" + spec.name + ".violation.json";
    {
      const Scoped span(tracer, "scenario.artifact_write");
      sc::write_artifact_file(path, *artifact);
    }
    unit.artifact_bytes += std::filesystem::file_size(path);
    sc::ViolationArtifact loaded;
    {
      const Scoped span(tracer, "scenario.artifact_load");
      loaded = sc::load_artifact_file(path);
    }
    bool same = loaded.violation == artifact->violation &&
                loaded.views == artifact->views &&
                loaded.slice.size() == artifact->slice.size() &&
                loaded.engine.seed == artifact->engine.seed &&
                loaded.engine.p == artifact->engine.p;
    for (std::size_t i = 0; same && i < loaded.slice.size(); ++i) {
      same = same_record(loaded.slice[i], artifact->slice[i]);
    }
    if (!same) failures.push_back(spec.name + ": artifact round trip differs");
    sc::ReplayResult replay;
    {
      const Scoped span(tracer, "scenario.replay");
      replay = sc::replay_artifact(loaded, untimed);
    }
    ++runs;
    unit.rounds += artifact->violation.round;
    if (!replay.reproduced || !(replay.violation == artifact->violation)) {
      failures.push_back(spec.name + ": replay did not reproduce the " +
                         "frozen violation");
    }
  }

  const std::string trace_path = out_dir + "/" + spec.name + ".trace.jsonl";
  sim::RunResult traced;
  std::vector<sim::RoundRecord> kept;
  {
    const Scoped span(tracer, "sim.trace.run");
    std::ofstream os(trace_path, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + trace_path);
    TeeSink tee(os, tracer);
    traced = sc::run_scenario_trace(spec, untimed, tee);
    const std::int64_t start = tracer ? now_ns() : 0;
    os.close();
    if (tracer) tracer->trace_write_ns += now_ns() - start;
    kept = tee.kept();
  }
  ++runs;
  unit.rounds += kept.size();
  unit.trace_bytes += std::filesystem::file_size(trace_path);
  std::vector<sim::RoundRecord> read;
  {
    const Scoped span(tracer, "sim.trace.read");
    std::ifstream is(trace_path);
    read = sim::read_trace_jsonl(is);
  }
  bool same = read.size() == kept.size() && !kept.empty() &&
              kept.back().violation_depth == traced.violation_depth;
  for (std::size_t i = 0; same && i < read.size(); ++i) {
    same = same_record(read[i], kept[i]);
  }
  if (!same) failures.push_back(spec.name + ": trace read-back differs");

  unit.engine_runs += runs;
  if (!failures.empty()) {
    unit.failed_runs += runs;
    unit.failures.insert(unit.failures.end(), failures.begin(),
                         failures.end());
  }
}

}  // namespace

std::vector<sc::ScenarioSpec> setup_specs(
    const std::vector<std::string>& paths,
    const sc::ScenarioRegistry& registry, Tracer* tracer) {
  std::vector<sc::ScenarioSpec> specs;
  for (const std::string& path : paths) {
    {
      const Scoped span(tracer, "scenario.load");
      specs.push_back(sc::load_scenario_file(path));
    }
    const Scoped span(tracer, "scenario.resolve");
    const sc::ScenarioSpec& spec = specs.back();
    const exp::SweepGrid grid = sc::build_grid(spec);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      (void)sc::build_config(spec, grid.point(i));
    }
    sc::validate_components(spec, registry);
  }
  return specs;
}

void count_round(const sim::ExecutionEngine& engine, RoundCounts& counts) {
  const sim::RoundActivity& activity = engine.round_activity();
  const std::uint64_t mined = activity.honest_mined + activity.adversary_mined;
  ++counts.rounds;
  counts.active += (mined > 0 || activity.delivered > 0) ? 1 : 0;
  counts.blocks += mined;
  counts.deliveries += activity.delivered;
  counts.adoptions += activity.adoptions;
}

UnitResult run_unit(WorkloadKind kind, const std::vector<std::string>& paths,
                    const std::string& out_dir, Tracer* tracer) {
  UnitResult unit;
  RssProbe probe;
  const auto registry = make_run_registry(probe, tracer);
  const auto untimed = make_run_registry(probe, nullptr);
  Digest digest;
  std::vector<sc::ScenarioSpec> specs;
  std::vector<double> run_rss;
  const auto start = Clock::now();
  try {
    specs = setup_specs(paths, *registry, tracer);
    for (const sc::ScenarioSpec& spec : specs) {
      if (tracer) tracer->current_spec = &spec;
      const std::uint64_t runs_before = unit.engine_runs;
      switch (kind) {
        case WorkloadKind::kDenseGrid:
          fixed_sweep(spec, *registry, out_dir, tracer, digest, unit);
          break;
        case WorkloadKind::kSparsePrecision:
          adaptive_sweep(spec, *registry, out_dir, tracer, digest, unit);
          break;
        case WorkloadKind::kObservedMix:
          observed_sweep(spec, *registry, *untimed, out_dir, tracer, digest,
                         unit);
          break;
      }
      // Every engine of this spec was built through the registry, each
      // opening a probe segment; the last `runs` segments, closed here,
      // are one engine run each (the component-validation probes come
      // before them).
      probe.mark();
      const auto& segments = probe.segments_mb();
      const std::size_t runs = std::min<std::size_t>(
          unit.engine_runs - runs_before, segments.size());
      run_rss.insert(run_rss.end(), segments.end() - static_cast<long>(runs),
                     segments.end());
    }
  } catch (const std::exception& e) {
    // The unit's runs cannot be trusted; count at least its planned
    // budget as attempted and failed.
    std::uint64_t planned = 0;
    for (const sc::ScenarioSpec& spec : specs) planned += budget_runs(spec);
    unit.engine_runs = std::max<std::uint64_t>({unit.engine_runs, planned, 1});
    unit.failed_runs = unit.engine_runs;
    unit.failures.push_back(std::string("exception: ") + e.what());
  }
  unit.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (tracer) tracer->current_spec = nullptr;  // `specs` dies with this call
  if (!run_rss.empty()) {
    std::sort(run_rss.begin(), run_rss.end());
    unit.run_rss_mb = run_rss[run_rss.size() / 2];
    unit.max_run_rss_mb = run_rss.back();
  }
  unit.digest = digest.value();
  return unit;
}

}  // namespace perfbench
