#include "specs.hpp"

#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Arms all three oracle invariants.  T = 8 matches every spec's
// violation_t; the growth and quality windows are the spec-format
// defaults.
constexpr const char* kOracleBlock =
    R"("oracle": {"invariants": ["common-prefix", "chain-growth", "chain-quality"],
             "growth_window": 64, "growth_min_blocks": 1,
             "quality_window": 64, "quality_min_ratio": 0.05,
             "slice_rounds": 64},
)";

// Run k of a cell uses engine seed base_seed + k, so adjacent base seeds
// would share almost every run.  Spreading them by a prime larger than
// any cell's run count gives each benchmark seed disjoint inputs; the
// seed is taken mod 2^32 first so base_seed stays below 2^53, exactly
// representable as the JSON number the spec parser reads.
constexpr std::uint64_t kSeedStride = 1000003;

std::string header(const std::string& name, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\n  \"name\": \"" << name
     << "\",\n  \"base_seed\": " << (seed & 0xffffffffULL) * kSeedStride << ",\n";
  return os.str();
}

// The n=160, p=0.01 private-withholding cells of the engine-throughput
// grid: ~95% of rounds deliver something, so per-event layers (calendar,
// MinerView::deliver, ancestry, ConsistencyTracker) do nearly all the
// work and quiet-round skipping has nothing to skip.
std::vector<SpecFile> dense_grid(std::uint64_t seed, bool toy) {
  std::ostringstream os;
  os << header("perfbench_dense_grid", seed)
     << "  \"engine\": {\"miners\": 160, \"nu\": 0.25, \"p\": 0.01, "
        "\"rounds\": "
     << (toy ? 300 : 20000) << "},\n"
     << "  \"axes\": [{\"name\": \"delta\", \"values\": [1, 4]}],\n"
     << "  \"hardness\": {\"mode\": \"fixed\"},\n"
     << "  \"seeds\": " << (toy ? 2 : 5) << ",\n"
     << "  \"violation_t\": 8,\n"
     << "  \"adversary\": {\"strategy\": \"private-withhold\"},\n"
     << "  \"network\": {\"model\": \"strategy\"}\n}\n";
  return {{"perfbench_dense_grid", os.str()}};
}

// One sparse cell (n=40, Δ=3, ν=0.25, p at 2.5× the neat bound) run until
// the Wilson half-width on P[depth > T] reaches the target: about 470
// short runs in ~115 waves of 4, ~16% of rounds active.  T = 7 puts
// P near 0.45, where the Wilson stopping time is first-order insensitive
// to the estimate, so the run count barely moves from seed to seed (at
// T = 8, P ≈ 0.32 and the count spreads by ~2% sd).
std::vector<SpecFile> sparse_precision(std::uint64_t seed, bool toy) {
  std::ostringstream os;
  os << header("perfbench_sparse_precision", seed)
     << "  \"engine\": {\"miners\": 40, \"nu\": 0.25, \"delta\": 3, "
        "\"rounds\": "
     << (toy ? 400 : 20000) << "},\n"
     << "  \"axes\": [{\"name\": \"multiple\", \"values\": [2.5]}],\n"
     << "  \"hardness\": {\"mode\": \"neat-bound-multiple\"},\n"
     << "  \"seeds\": 16,\n"
     << "  \"violation_t\": 7,\n";
  if (toy) {
    os << "  \"adaptive\": {\"min_seeds\": 4, \"batch\": 4, \"max_seeds\": "
          "12, \"half_width\": 0.2, \"confidence\": 0.95},\n";
  } else {
    os << "  \"adaptive\": {\"min_seeds\": 16, \"batch\": 4, \"max_seeds\": "
          "8192, \"half_width\": 0.045, \"confidence\": 0.95},\n";
  }
  os << "  \"adversary\": {\"strategy\": \"private-withhold\"},\n"
     << "  \"network\": {\"model\": \"strategy\"}\n}\n";
  return {{"perfbench_sparse_precision", os.str()}};
}

// The bundled specs dense-grid does not cover, each with the oracle
// armed: balance-attack, fork-balancer, delay-saturate and selfish-mining
// strategies over the strategy, bursty, eclipse and uniform networks.
std::vector<SpecFile> observed_mix(std::uint64_t seed, bool toy) {
  struct Entry {
    const char* name;
    const char* body;  ///< engine/axes/hardness/seeds/components
    unsigned rounds;
    unsigned seeds;
  };
  const Entry entries[] = {
      {"perfbench_balance_vs_forkbalancer",
       R"(  "engine": {"miners": 40, "nu": 0.4, "delta": 4, "rounds": %R%},
  "axes": [{"name": "c", "values": [0.5, 0.8, 1.2, 2.0, 4.0]}],
  "hardness": {"mode": "c"},
  "adversary": {"strategy": "balance-attack"},
  "network": {"model": "strategy"},
)",
       12000, 4},
      {"perfbench_bursty_partition",
       R"(  "engine": {"miners": 32, "nu": 0.3, "rounds": %R%},
  "axes": [{"name": "delta", "values": [2, 4, 8]},
           {"name": "c", "values": [0.6, 1.2, 2.5, 5.0]}],
  "hardness": {"mode": "c"},
  "adversary": {"strategy": "fork-balancer"},
  "network": {"model": "bursty", "period": 12, "burst_length": 6},
)",
       16000, 4},
      {"perfbench_eclipse_targeting",
       R"(  "engine": {"miners": 40, "delta": 4, "rounds": %R%},
  "axes": [{"name": "nu", "values": [0.1, 0.25, 0.4]},
           {"name": "multiple", "values": [0.7, 1.5, 4.0]}],
  "hardness": {"mode": "neat-bound-multiple"},
  "adversary": {"strategy": "delay-saturate", "rebase_margin": 12},
  "network": {"model": "eclipse", "victims": 6},
)",
       20000, 4},
      {"perfbench_uniform_jitter",
       R"(  "engine": {"miners": 40, "delta": 3, "rounds": %R%, "p": 0.002},
  "axes": [{"name": "nu", "values": [0.1, 0.2, 0.3, 0.4]}],
  "adversary": {"strategy": "selfish-mining", "gamma": 0.5},
  "network": {"model": "uniform"},
)",
       20000, 4},
      {"perfbench_oracle_falsify",
       R"(  "engine": {"miners": 12, "nu": 0.4, "delta": 4, "rounds": %R%},
  "axes": [{"name": "multiple", "values": [0.2]}],
  "hardness": {"mode": "neat-bound-multiple"},
  "adversary": {"strategy": "fork-balancer"},
  "network": {"model": "strategy"},
)",
       1200, 8},
  };
  std::vector<SpecFile> out;
  for (const Entry& entry : entries) {
    std::string body = entry.body;
    const std::string rounds = std::to_string(toy ? 300 : entry.rounds);
    body.replace(body.find("%R%"), 3, rounds);
    std::ostringstream os;
    os << header(entry.name, seed) << body << "  "
       << kOracleBlock << "  \"seeds\": " << (toy ? 1 : entry.seeds)
       << ",\n  \"violation_t\": 8\n}\n";
    out.push_back({entry.name, os.str()});
  }
  return out;
}

}  // namespace

std::vector<SpecFile> workload_specs(WorkloadKind kind, std::uint64_t seed,
                                     bool toy) {
  switch (kind) {
    case WorkloadKind::kDenseGrid:
      return dense_grid(seed, toy);
    case WorkloadKind::kSparsePrecision:
      return sparse_precision(seed, toy);
    case WorkloadKind::kObservedMix:
      return observed_mix(seed, toy);
  }
  throw std::logic_error("unknown workload kind");
}

WorkloadKind parse_workload(const std::string& name) {
  for (const WorkloadKind kind :
       {WorkloadKind::kDenseGrid, WorkloadKind::kSparsePrecision,
        WorkloadKind::kObservedMix}) {
    if (name == workload_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (dense-grid, sparse-precision, observed-mix)");
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDenseGrid:
      return "dense-grid";
    case WorkloadKind::kSparsePrecision:
      return "sparse-precision";
    case WorkloadKind::kObservedMix:
      return "observed-mix";
  }
  return "?";
}

}  // namespace perfbench
