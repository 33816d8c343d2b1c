// Performance microbenchmarks (google-benchmark): throughput of the
// components the experiment harnesses lean on — per-round simulation cost,
// binomial sampling, suffix-chain solves, frontier inversions, LogProb
// arithmetic.
#include <benchmark/benchmark.h>

#include <memory>

#include "bounds/frontier.hpp"
#include "chains/convergence.hpp"
#include "chains/suffix_chain.hpp"
#include "markov/stationary.hpp"
#include "sim/aggregate.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "support/logprob.hpp"
#include "support/crng.hpp"

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

void BM_CrngBinomialSmallMean(benchmark::State& state) {
  crng::Stream rng(crng::Key{1, 0}, 0, 0, crng::Purpose::kGeneric);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const double p = 0.5 / static_cast<double>(n);  // mean 0.5
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(n, p));
  }
}
BENCHMARK(BM_CrngBinomialSmallMean)->Arg(100)->Arg(10000)->Arg(1000000);

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

void BM_AggregateEngineRounds(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::AggregateConfig config;
    config.honest_trials = 150;
    config.adversary_trials = 50;
    config.p = 0.001;
    config.delta = 4;
    config.rounds = static_cast<std::uint64_t>(state.range(0));
    config.seed = ++seed;
    benchmark::DoNotOptimize(sim::run_aggregate(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateEngineRounds)->Arg(10000)->Arg(100000);

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

void BM_ConvergenceCounting(benchmark::State& state) {
  crng::Stream rng(crng::Key{3, 0}, 0, 0, crng::Purpose::kGeneric);
  std::vector<std::uint32_t> counts(100000);
  for (auto& c : counts) {
    c = static_cast<std::uint32_t>(rng.binomial(150, 0.001));
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
