// Convergence opportunities and the concatenated chain C_{F‖P}.
//
// A convergence opportunity is the paper's F‖P state HN^{≥Δ} ‖ H₁N^Δ:
//   (i)   some honest block exists,                  then
//   (ii)  ≥ Δ rounds with no honest block,           then
//   (iii) a round where EXACTLY ONE honest block is mined,  then
//   (iv)  Δ more rounds with no honest block.
// At its end, every honest player agrees on a unique longest chain.
//
// The paper proves (Eq. 44):
//   π_{F‖P}(HN^{≥Δ} ‖ H₁N^Δ) = ᾱ^{2Δ}·α₁
// and E[C(t₀, t₀+T−1)] = T·ᾱ^{2Δ}·α₁ (Eq. 26); and Proposition 1:
//   min π_{F‖P} = (min π_F)·(min{p^{μn}, (1−p)^{μn}})^{Δ+1},
//   ‖φ‖_π ≤ 1/sqrt(min π_{F‖P}).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chains/suffix_chain.hpp"
#include "support/logprob.hpp"

namespace neatbound::chains {

/// Per-round probabilities of the detailed states (Eq. 41):
/// P[H_h] = C(μn, h)·p^h·(1−p)^{μn−h} and P[N] = (1−p)^{μn}.
struct DetailedStateModel {
  double honest_trials = 0.0;  ///< μn (need not be integral)
  double p = 0.0;              ///< proof-of-work hardness

  /// P[H_h]: exactly h honest blocks in a round; h ≥ 1.
  [[nodiscard]] LogProb prob_h(std::uint64_t h) const;
  /// P[N] = ᾱ.
  [[nodiscard]] LogProb prob_n() const;
  /// α = 1 − ᾱ.
  [[nodiscard]] LogProb prob_some() const;
  /// α₁ = P[H₁].
  [[nodiscard]] LogProb prob_one() const;
  /// min over Detailed-State-Set of the per-round probability — the
  /// paper's Eq. (97): min{p^{μn}, (1−p)^{μn}}.
  [[nodiscard]] LogProb min_detailed_prob() const;
};

/// Eq. (44): π_{F‖P}(HN^{≥Δ}‖H₁N^Δ) = ᾱ^{2Δ}·α₁, in log space.
[[nodiscard]] LogProb convergence_opportunity_probability(
    LogProb alpha_bar, LogProb alpha1, std::uint64_t delta);

/// Eq. (26): E[C(t₀, t₀+T−1)] = T·ᾱ^{2Δ}·α₁.
[[nodiscard]] LogProb expected_convergence_opportunities(
    LogProb alpha_bar, LogProb alpha1, std::uint64_t delta, double window);

/// Proposition 1: min π_{F‖P} and the π-norm bound ‖φ‖_π ≤ 1/sqrt(min π).
[[nodiscard]] LogProb min_stationary_concatenated(
    const DetailedStateModel& model, std::uint64_t delta, LogProb alpha_bar);

/// Counts convergence opportunities in a series of per-round honest block
/// counts.  `honest_blocks[t]` is the number of blocks honest miners mined
/// in round t.  The genesis block plays the role of the leading H, so a
/// qualifying H₁ at small t (with only N's before it) counts as long as
/// the quiet gaps hold.  A round t is counted when:
///   honest_blocks[t] == 1,
///   honest_blocks[t−Δ .. t−1] are all 0 (or t < Δ with all-zero prefix),
///   honest_blocks[t+1 .. t+Δ] are all 0 (requires t+Δ < size).
[[nodiscard]] std::uint64_t count_convergence_opportunities(
    std::span<const std::uint32_t> honest_blocks, std::uint64_t delta);

/// count_convergence_opportunities as an online automaton over one input
/// per round: N (no honest block), H₁ (exactly one) or H_{≥2}.  Its 2Δ+1
/// states are
///   q ∈ [0, Δ]          unarmed, q quiet rounds since the last honest
///                       block (capped at Δ);
///   Δ+1+j, j ∈ [0, Δ)   armed: an H₁ after ≥ Δ quiet rounds, then j
///                       quiet rounds.
/// The Δ-th quiet round of an armed state completes one opportunity and
/// falls back to unarmed q = Δ: that H₁ is the next pattern's leading H.
class OpportunityAutomaton {
 public:
  enum class Input : std::uint8_t { kQuiet, kOne, kMany };
  struct Step {
    std::size_t next;
    bool completes;  ///< this round ends a convergence opportunity
  };

  /// EXPECTS delta >= 1.
  explicit OpportunityAutomaton(std::uint64_t delta);

  [[nodiscard]] static Input input_of(std::uint32_t honest_blocks) noexcept {
    return honest_blocks == 0   ? Input::kQuiet
           : honest_blocks == 1 ? Input::kOne
                                : Input::kMany;
  }
  [[nodiscard]] std::size_t states() const noexcept { return 2 * delta_ + 1; }
  /// Genesis is the leading H, already quiet for Δ rounds.
  [[nodiscard]] std::size_t start() const noexcept { return delta_; }
  [[nodiscard]] Step step(std::size_t state, Input input) const noexcept;
  /// `quiet` kQuiet steps at once, in O(1): quiet input saturates, so an
  /// unarmed state moves to min(q + quiet, Δ), and an armed state j
  /// completes once and lands on q = Δ if j + quiet ≥ Δ, else moves to
  /// armed j + quiet.
  [[nodiscard]] Step step_quiet(std::size_t state,
                                std::uint64_t quiet) const noexcept;

 private:
  std::size_t delta_;
};

/// The exact law of C(1, T) from genesis: P[C = first + k] = pmf[k].
/// Each round drops at most kOpportunityLawCutoff of count mass at each
/// end of the support, so Σ pmf ≥ 1 − 2·T·kOpportunityLawCutoff.
struct OpportunityLaw {
  std::uint64_t first = 0;
  std::vector<double> pmf;

  [[nodiscard]] double mass() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// P[C ≤ x].
  [[nodiscard]] double cdf(double x) const noexcept;
};

inline constexpr double kOpportunityLawCutoff = 1e-30;

/// Dynamic program over (automaton state, count) with the per-round
/// input probabilities of `model`: O(Δ·T·√T) once the support is
/// trimmed.  EXPECTS delta >= 1 and p in (0, 1).
[[nodiscard]] OpportunityLaw convergence_opportunity_law(
    const DetailedStateModel& model, std::uint64_t delta,
    std::uint64_t rounds);

}  // namespace neatbound::chains
