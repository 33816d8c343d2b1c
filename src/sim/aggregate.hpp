// The aggregate engine: per-round binomial sampling without block objects.
//
// Theorems 1–2 are statements about two counting processes only — the
// number of convergence opportunities C(t₀, t₀+T−1) (a function of the
// per-round honest block counts) and the adversary block count
// A(t₀, t₀+T−1) ~ Binomial(Tνn, p).  Neither needs chains or a network,
// so validating Eq. (26)/(27) at large T is orders of magnitude cheaper
// here than in the execution engine.  The two engines cross-validate:
// tests assert they produce identical counting statistics in distribution.
#pragma once

#include <cstdint>

#include "sim/trace.hpp"

namespace neatbound::sim {

struct AggregateConfig {
  double honest_trials = 0.0;     ///< μn
  double adversary_trials = 0.0;  ///< νn
  double p = 0.0;
  std::uint64_t delta = 1;
  std::uint64_t rounds = 0;
  std::uint64_t seed = 1;
};

struct AggregateResult {
  std::uint64_t honest_blocks = 0;
  std::uint64_t adversary_blocks = 0;
  std::uint64_t convergence_opportunities = 0;
  std::uint64_t h_rounds = 0;   ///< rounds with ≥1 honest block
  std::uint64_t h1_rounds = 0;  ///< rounds with exactly one honest block
};

/// Runs the counting process for `config.rounds` rounds.
/// Convergence opportunities are counted online with the same semantics as
/// chains::count_convergence_opportunities (genesis supplies the leading
/// quiet period).
[[nodiscard]] AggregateResult run_aggregate(const AggregateConfig& config);

/// As above, streaming one RoundRecord per round into `sink` (the
/// structured trace API of sim/trace.hpp).  The aggregate model has no
/// chains or network, so only the counting fields are populated: round
/// (1-based), honest_mined, adversary_mined; mined_by stays empty (the
/// model draws a binomial total, not per-miner identities) and the
/// view/chain fields stay zero.
[[nodiscard]] AggregateResult run_aggregate_traced(
    const AggregateConfig& config, RoundTraceSink& sink);

}  // namespace neatbound::sim
