// Performance microbenchmarks (google-benchmark): throughput of the
// components the experiment harnesses lean on — per-round simulation cost,
// broadcast delay scheduling, block-store appends, suffix-chain solves,
// frontier inversions, LogProb arithmetic.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bounds/frontier.hpp"
#include "chains/convergence.hpp"
#include "chains/suffix_chain.hpp"
#include "markov/stationary.hpp"
#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/oracle.hpp"
#include "sim/strategies.hpp"
#include "sim/trace.hpp"
#include "support/logprob.hpp"
#include "support/crng.hpp"
#include "support/json.hpp"

namespace {

using namespace neatbound;

void BM_LogProbMulAdd(benchmark::State& state) {
  LogProb a = LogProb::from_linear(0.3);
  const LogProb b = LogProb::from_linear(0.7);
  for (auto _ : state) {
    a = a * b + b;
    if (a.log() > 0.0) a = LogProb::from_linear(0.3);  // keep bounded
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_LogProbMulAdd);

void BM_SuffixChainStationaryPower(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const chains::SuffixStateSpace space(delta);
  const auto matrix = chains::build_suffix_chain_matrix(space, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_stationary_power(matrix));
  }
  state.SetLabel(std::to_string(2 * delta + 1) + " states");
}
BENCHMARK(BM_SuffixChainStationaryPower)->Arg(4)->Arg(16)->Arg(64);

void BM_ClosedFormStationary(benchmark::State& state) {
  const auto delta = static_cast<std::uint64_t>(state.range(0));
  const chains::SuffixStateSpace space(delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chains::stationary_closed_form_vector(space, 0.1));
  }
}
BENCHMARK(BM_ClosedFormStationary)->Arg(4)->Arg(64);

void BM_FrontierNuMax(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::nu_max(
        bounds::BoundKind::kZhaoTheorem1Exact, 3.0, 1e5, 1e13));
  }
}
BENCHMARK(BM_FrontierNuMax);

void BM_ExecutionEngineRounds(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::EngineConfig config;
    config.miner_count = 40;
    config.adversary_fraction = 0.25;
    config.p = 0.002;
    config.delta = 3;
    config.rounds = static_cast<std::uint64_t>(state.range(0));
    config.seed = ++seed;
    sim::ExecutionEngine engine(
        config, std::make_unique<sim::PrivateWithholdAdversary>());
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecutionEngineRounds)->Arg(2000)->Arg(10000);

/// The engine's `schedule` phase without the calendar: one honest_delays
/// call and the run scan for a broadcast to 120 honest views (n = 160,
/// ν = 0.25, Δ = 4: the dense-grid shape).  Args pick (network, strategy).
void BM_BroadcastDelays(benchmark::State& state) {
  static constexpr std::pair<const char*, const char*> kCells[] = {
      {"strategy", "private-withhold"},
      {"strategy", "fork-balancer"},
      {"uniform", "private-withhold"},
      {"eclipse", "private-withhold"},
  };
  const auto& [network, strategy] =
      kCells[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(std::string(network) + "+" + strategy);
  sim::EngineConfig config;
  config.miner_count = 160;
  config.adversary_fraction = 0.25;
  config.delta = 4;
  const std::unique_ptr<sim::Adversary> adversary =
      scenario::ScenarioRegistry::builtin().make_adversary(
          network, {}, strategy, {}, config);
  const std::uint32_t honest = sim::honest_miner_count(config);
  std::vector<std::uint64_t> delays(honest);
  std::uint64_t round = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    ++round;
    const auto sender = static_cast<std::uint32_t>(round % honest);
    adversary->honest_delays(round, sender, round, delays);
    net::for_each_delay_run(
        sender, delays,
        [&runs](std::uint32_t, std::uint32_t, std::uint64_t) { ++runs; });
  }
  benchmark::DoNotOptimize(runs);
  state.counters["runs_per_broadcast"] = benchmark::Counter(
      static_cast<double>(runs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BroadcastDelays)->DenseRange(0, 3);

/// A forked tree shaped like a longest-chain execution: each block
/// extends the tip, or with probability 0.15 a block up to 5 below it.
/// parents[i] is block i + 1's parent; hashes[i] is block i's hash.
struct ForkedTree {
  std::vector<protocol::BlockIndex> parents;
  std::vector<protocol::HashValue> hashes{0};

  explicit ForkedTree(std::size_t blocks) {
    crng::Stream rng(crng::Key{5, 0}, 0, 0, crng::Purpose::kGeneric);
    std::vector<std::uint32_t> height{0};
    protocol::BlockIndex tip = protocol::kGenesisIndex;
    for (std::size_t i = 0; i < blocks; ++i) {
      protocol::BlockIndex parent = tip;
      if (rng.bernoulli(0.15)) {
        for (auto back = rng.uniform_below(6); back > 0 && parent != 0;
             --back) {
          parent = parents[parent - 1];
        }
      }
      parents.push_back(parent);
      hashes.push_back(mix64(i + 1));
      height.push_back(height[parent] + 1);
      if (height.back() > height[tip]) {
        tip = static_cast<protocol::BlockIndex>(i + 1);
      }
    }
  }

  [[nodiscard]] protocol::Block block(std::size_t i) const {
    protocol::Block b;
    b.hash = hashes[i + 1];
    b.parent = parents[i];
    b.parent_hash = hashes[parents[i]];
    b.round = i + 1;
    return b;
  }
};

/// BlockStore::add alone: a fresh store grows a 32k-block forked tree.
void BM_BlockStoreAppend(benchmark::State& state) {
  const ForkedTree tree(32768);
  for (auto _ : state) {
    protocol::BlockStore store;
    for (std::size_t i = 0; i < tree.parents.size(); ++i) {
      benchmark::DoNotOptimize(store.add(tree.block(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tree.parents.size()));
}
BENCHMARK(BM_BlockStoreAppend);

/// BlockStore::common_ancestor on the pairs the consistency metrics ask
/// about: two tips at one height whose fork point is 1–8 blocks below
/// them, spread over a 16k-block trunk.
void BM_CommonAncestor(benchmark::State& state) {
  protocol::BlockStore store;
  std::vector<protocol::BlockIndex> trunk{protocol::kGenesisIndex};
  protocol::HashValue hash = 0;
  const auto append = [&](protocol::BlockIndex parent) {
    protocol::Block b;
    b.hash = mix64(++hash);
    b.parent = parent;
    b.parent_hash = store.hash_of(parent);
    return store.add(b);
  };
  for (int h = 1; h <= 16384; ++h) trunk.push_back(append(trunk.back()));
  crng::Stream rng(crng::Key{6, 0}, 0, 0, crng::Purpose::kGeneric);
  std::vector<std::pair<protocol::BlockIndex, protocol::BlockIndex>> pairs;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t depth = 1 + rng.uniform_below(8);
    const std::uint64_t fork = rng.uniform_below(trunk.size() - depth);
    protocol::BlockIndex tip = trunk[fork];
    for (std::uint64_t d = 0; d < depth; ++d) tip = append(tip);
    pairs.emplace_back(tip, trunk[fork + depth]);
  }
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(store.common_ancestor(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_CommonAncestor);

/// The oracle's common-prefix measurement on one adoption round: n = 40
/// honest views in k = 1–6 classes (the arg) over a 4k-block trunk.
/// Classes hold three branch tips forked 1–3 blocks below the trunk's
/// top, so from k = 4 on classes share tips and the scan deduplicates.
void BM_OracleCommonPrefix(benchmark::State& state) {
  constexpr std::uint32_t kViews = 40;
  const auto classes = static_cast<std::uint32_t>(state.range(0));
  protocol::BlockStore store;
  protocol::HashValue hash = 0;
  const auto append = [&](protocol::BlockIndex parent) {
    protocol::Block b;
    b.hash = mix64(++hash);
    b.parent = parent;
    b.parent_hash = store.hash_of(parent);
    return store.add(b);
  };
  protocol::BlockIndex trunk = protocol::kGenesisIndex;
  for (int h = 1; h <= 4096; ++h) trunk = append(trunk);
  std::vector<protocol::BlockIndex> branches;
  for (std::uint64_t depth = 1; depth <= 3; ++depth) {
    protocol::BlockIndex tip = store.ancestor(trunk, depth);
    for (std::uint64_t d = 0; d <= depth; ++d) tip = append(tip);
    branches.push_back(tip);
  }
  // Class c holds views [c·n/k, (c+1)·n/k); its lead is the first.
  std::vector<protocol::BlockIndex> tips;
  std::vector<std::uint32_t> leads;
  for (std::uint32_t c = 0; c < classes; ++c) {
    tips.push_back(branches[c % branches.size()]);
    leads.push_back(c * kViews / classes);
  }
  sim::TipDivergenceScan scan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.measure(store, tips, leads));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleCommonPrefix)->DenseRange(1, 6);

/// The trace reader's per-line cost: one JSONL round record (the 134-byte
/// shape a busy observed-mix round writes) through parse_json and the
/// strict record reader.
void BM_TraceLineParse(benchmark::State& state) {
  sim::RoundRecord record;
  record.round = 123456;
  record.honest_mined = 2;
  record.adversary_mined = 1;
  record.mined_by = {3, 17};
  record.delivered = 78;
  record.adoptions = 40;
  record.best_height = 4567;
  record.violation_depth = 3;
  const std::string line = sim::to_jsonl_line(record);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::round_record_from_json(support::parse_json(line)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_TraceLineParse);

void BM_ConvergenceCounting(benchmark::State& state) {
  crng::Stream rng(crng::Key{3, 0}, 0, 0, crng::Purpose::kGeneric);
  // Per-round honest block counts: 150 miners at p = 0.001.
  std::vector<std::uint32_t> counts(100000);
  for (auto& c : counts) {
    for (int miner = 0; miner < 150; ++miner) c += rng.bernoulli(0.001);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chains::count_convergence_opportunities(counts, 4));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(counts.size()));
}
BENCHMARK(BM_ConvergenceCounting);

}  // namespace

BENCHMARK_MAIN();
