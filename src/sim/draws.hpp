// Addressable Bernoulli success fields for counter-mode mining.
//
// Counter mode decides mining success by an iid Bernoulli(p) field over a
// flat position space (honest query g = (round−1)·n + miner; adversary
// query g = (round−1)·budget + query-index), enumerated by geometric
// gaps: the number of failures between consecutive successes is
// Geometric(p), so walking the success positions costs O(successes)
// instead of O(positions) — the skip-sampling step ROADMAP items 1 and 2
// call for.  Gap i is drawn from lane (i mod 4) of the Philox block at
// counter (i/4, 0, purpose, 0), so the whole field is a pure function of
// (key, purpose): any run — stepped, quiet-skipped, replayed from a trace —
// walking the same positions sees the same successes, regardless of how
// many other draws happened in between.
#pragma once

#include <cstdint>

#include "support/crng.hpp"
#include "support/hot.hpp"

namespace neatbound::sim {

/// Monotone cursor over the success positions of one Bernoulli(p) field.
/// Positions may only be consumed in increasing order (the engines query
/// rounds forward, and query indices forward within a round).
class GapCursor {
 public:
  GapCursor() = default;  ///< unusable until assigned from a real cursor

  GapCursor(crng::Key key, crng::Purpose purpose, double p);

  /// Position of the next success not yet consumed.
  [[nodiscard]] std::uint64_t peek() const noexcept { return next_; }

  /// Consumes the current success and returns its position.
  NEATBOUND_HOT std::uint64_t take();

  /// Discards any successes at positions < `pos` (queries that were never
  /// made — e.g. an adversary spending less than its budget).
  NEATBOUND_HOT void advance_to(std::uint64_t pos);

  /// True iff `pos` is a success; consumes it when so.  `pos` must be
  /// ≥ every previously tested/taken position.
  [[nodiscard]] NEATBOUND_HOT bool contains_take(std::uint64_t pos);

 private:
  [[nodiscard]] std::uint64_t next_gap();

  crng::Key key_{};
  std::uint64_t purpose_ = 0;
  double log_q_ = -1.0;  ///< log(1 − p)
  std::uint64_t gap_index_ = 0;
  std::uint64_t next_ = 0;  ///< position of the next success
  crng::Block buffer_{};
};

}  // namespace neatbound::sim
