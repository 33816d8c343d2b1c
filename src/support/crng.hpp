// Counter-based pseudo-random number generation (Philox4x64-10), the
// library's one draw discipline.
//
// Every draw is a pure function of (key, counter): there is no hidden
// state to thread through the simulator, so any draw is addressable out
// of order, from any thread, and the engine can locate the next mining
// success without drawing the rounds before it (sim/draws.hpp).  The
// library never uses std::*_distribution either: their output sequences
// are implementation-defined, which would make seed-pinned tests and
// recorded experiment outputs non-reproducible across standard
// libraries.  The simulator keys draws as
//
//   key     = (cell, seed)            cell = hash of the engine params
//   counter = (a, b, purpose, slot)   a = round or flat draw index,
//                                     b = actor (miner / query / edge)
//
// so replay and checkpoint resume stay bit-exact: draw addresses depend
// only on *where* in the simulation a draw happens, never on how many
// draws happened before it.
//
// The generator is Philox4x64 with 10 rounds and the Random123 constants
// (Salmon et al., SC'11).  It is pinned against vectors produced by an
// independent implementation (scripts/gen_crng_vectors.py, including the
// upstream Random123 kat_vectors rows) in tests/support/test_crng.cpp.
#pragma once

#include <array>
#include <cstdint>

#include "support/contracts.hpp"

namespace neatbound {

/// Stateless 64-bit mixing function (the splitmix64 output finalizer).
/// Not a draw source: it hashes parameters into keys and salts
/// (engine_rng_key, the aggregate key, registry salts) and is the round
/// function of protocol::RandomOracle.  Bit-exact outputs are part of the
/// pinned-trajectory contract.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

}  // namespace neatbound

namespace neatbound::crng {

/// 128-bit key: which random function we are evaluating.
struct Key {
  std::uint64_t cell = 0;  ///< grid-cell identity (hash of engine params)
  std::uint64_t seed = 0;  ///< per-run seed within the cell
};

/// 256-bit counter: which draw of that function we are asking for.
struct Counter {
  std::uint64_t a = 0;        ///< round number or flat draw index
  std::uint64_t b = 0;        ///< actor: miner id, query id, edge id, ...
  std::uint64_t purpose = 0;  ///< draw namespace (see Purpose)
  std::uint64_t slot = 0;     ///< block index within (a, b, purpose)
};

/// Disjoint draw namespaces.  Every consumer owns one value, so no two
/// subsystems can ever collide on a counter no matter how (a, b) are
/// assigned.  Values are part of the pinned-trajectory contract: renaming
/// is free, renumbering changes every pinned trajectory.
enum class Purpose : std::uint64_t {
  kHonestGap = 1,       ///< gaps between honest mining successes
  kHonestBlock = 2,     ///< per-success honest block draws (nonce, ...)
  kAdversaryGap = 3,    ///< gaps between adversary query successes
  kAdversaryBlock = 4,  ///< per-success adversary block draws
  kNetDelay = 5,        ///< per-message delivery delays
  kAggregate = 6,       ///< sim/aggregate.cpp per-round binomials
  kWalk = 7,            ///< markov/walk.cpp step draws
  kGeneric = 8,         ///< free-form Streams (tests, tools)
};

/// One Philox output block: four independent uniform 64-bit words.
using Block = std::array<std::uint64_t, 4>;

/// Philox4x64-10 keyed permutation: the full 256-bit output block for a
/// (counter, key) pair.  Pure function; ~20 multiplications.
[[nodiscard]] Block philox4x64(const Counter& counter, const Key& key) noexcept;

/// Single-word convenience: lane 0 of the output block.  Use philox4x64
/// directly when a call site can consume several lanes.
[[nodiscard]] std::uint64_t draw(const Key& key, const Counter& counter) noexcept;

/// Maps 64 random bits to a uniform double in [0, 1) with 53 bits of
/// precision.
[[nodiscard]] inline double to_unit(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Sequential adapter over one (key, a, b, purpose) counter subspace, for
/// distributions whose draw count is data-dependent (rejection sampling,
/// BINV inversion).  Consumes lanes of slot 0, 1, 2, ... in order; two
/// Streams on the same subspace produce identical sequences, and Streams
/// on different subspaces are independent.
class Stream {
 public:
  Stream(Key key, std::uint64_t a, std::uint64_t b, Purpose purpose) noexcept
      : key_(key),
        prefix_{a, b, static_cast<std::uint64_t>(purpose), 0} {}

  /// Next 64 random bits of the subspace.
  [[nodiscard]] std::uint64_t bits() noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() noexcept { return to_unit(bits()); }

  /// Uniform integer in [0, bound); bound must be > 0. Unbiased (rejection).
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound);

  /// Bernoulli(p).
  [[nodiscard]] bool bernoulli(double p);

  /// Binomial(n, p) — exact distribution.
  ///
  /// Uses BINV sequential inversion, O(1 + np) expected time, when
  /// np ≤ kInversionCutoff; otherwise splits the trial count (Binomial(a+b,
  /// p) =d Binomial(a, p) + Binomial(b, p)) so that each leaf is inverted
  /// cheaply.  Exactness matters: the paper's per-round block counts are
  /// Binomial(μn, p) and Binomial(νn, p) with tiny p, and the tails
  /// (P[X=1] vs P[X>1]) are precisely what the analysis counts.
  [[nodiscard]] std::uint64_t binomial(std::uint64_t n, double p);

  /// Geometric: number of Bernoulli(p) failures before the first success.
  [[nodiscard]] std::uint64_t geometric_failures(double p);

 private:
  static constexpr double kInversionCutoff = 64.0;
  [[nodiscard]] std::uint64_t binomial_inversion(std::uint64_t n, double p);

  Key key_;
  Counter prefix_;   ///< slot field = index of the next unfetched block
  Block buffer_{};   ///< lanes of the most recently fetched block
  unsigned lane_ = 4;  ///< next unconsumed lane in buffer_ (4 = empty)
};

}  // namespace neatbound::crng
