// Random walks on finite Markov chains, used by tests/benches to compare
// empirical visit frequencies with stationary distributions — i.e. the
// Monte-Carlo counterpart of the paper's C(t₀, t₀+T−1) counting argument.
#pragma once

#include <cstdint>
#include <vector>

#include "markov/chain.hpp"
#include "support/crng.hpp"

namespace neatbound::markov {

class RandomWalk {
 public:
  /// Starts at `start`; step draws come from the key's
  /// (a = 0, b = 0, Purpose::kWalk) counter subspace, so one key always
  /// replays the same walk.
  RandomWalk(const TransitionMatrix& matrix, std::size_t start,
             crng::Key key);

  /// Takes one step; returns the new state.
  std::size_t step();

  [[nodiscard]] std::size_t current() const noexcept { return current_; }

  /// Runs `steps` steps, returning per-state visit counts of the states
  /// *entered* (the start state is not counted).
  [[nodiscard]] std::vector<std::uint64_t> visit_counts(std::uint64_t steps);

 private:
  const TransitionMatrix& matrix_;
  std::size_t current_;
  crng::Stream stream_;
};

}  // namespace neatbound::markov
