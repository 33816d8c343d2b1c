// The adversary interface (Section III, capabilities ① and ②).
//
// The execution engine grants the adversary exactly the powers the model
// specifies and no more:
//   ① it picks, per (honest message, recipient), a delivery delay in
//     [1, Δ] — it cannot drop or modify honest messages;
//   ② it fully controls νn corrupted miners: it makes up to νn *sequential*
//     oracle queries per round, choosing each query's parent block, and
//     decides when (and to whom first) its blocks are published.
// One power the adversary does NOT have: permanently hiding a published
// block from a subset of honest players.  Honest players gossip, so the
// engine auto-echoes every block to all remaining honest players within Δ
// of its first honest receipt (see ExecutionEngine).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "protocol/block_store.hpp"

namespace neatbound::sim {

/// Engine-provided operations available to an adversary during its turn.
/// All mutation goes through this interface so the engine can enforce the
/// query budget and the Δ-delay contract.
class AdversaryOps {
 public:
  virtual ~AdversaryOps() = default;

  // --- observation (the adversary is rushing: it sees everything) ---
  [[nodiscard]] virtual const protocol::BlockStore& store() const = 0;
  [[nodiscard]] virtual std::uint64_t round() const = 0;
  [[nodiscard]] virtual std::uint64_t delta() const = 0;
  [[nodiscard]] virtual std::uint32_t honest_count() const = 0;
  /// Current tip of each honest miner's view.
  [[nodiscard]] virtual std::span<const protocol::BlockIndex> honest_tips()
      const = 0;
  /// The highest tip any honest miner currently holds.
  [[nodiscard]] virtual protocol::BlockIndex best_honest_tip() const = 0;

  // --- mining (capability ②, sequential queries) ---
  [[nodiscard]] virtual std::uint64_t remaining_queries() const = 0;
  /// Spends one query attempting to extend `parent`.  Returns the new
  /// (private) block's index on success.  Contract violation if the
  /// budget is exhausted.
  virtual std::optional<protocol::BlockIndex> mine_on(
      protocol::BlockIndex parent) = 0;
  /// Spends `k` ≤ remaining_queries() queries extending a private chain
  /// from `parent`: each success is mined on the previous one.  Returns
  /// the new blocks in mining order (empty when every query failed),
  /// valid until the next mine_run call.  Identical to k mine_on calls
  /// that each extend the latest success, at the same query addresses.
  virtual std::span<const protocol::BlockIndex> mine_run(
      protocol::BlockIndex parent, std::uint64_t k) = 0;

  // --- publication ---
  /// Sends `block` to one honest recipient with the given delay ∈ [1, Δ].
  /// The engine's gossip echo then bounds every other honest player's
  /// receipt by (first honest receipt) + Δ.
  virtual void publish_to(std::uint32_t recipient,
                          protocol::BlockIndex block,
                          std::uint64_t delay) = 0;
  /// Convenience: send to every honest recipient with one delay.
  virtual void publish_to_all(protocol::BlockIndex block,
                              std::uint64_t delay) = 0;
};

/// out[r] = adversary.honest_delay(round, sender, r, block) for every
/// r ≠ sender in ascending r; out[sender] is left untouched.  The one
/// loop behind every honest_delays: called with a `final` strategy, the
/// honest_delay call is direct and inlines.
template <typename A>
void fill_honest_delays(A& adversary, std::uint64_t round,
                        std::uint32_t sender, protocol::BlockIndex block,
                        std::span<std::uint64_t> out) {
  // Two branch-free loops around the sender, so a constant rule
  // vectorizes.
  const auto n = static_cast<std::uint32_t>(out.size());
  const std::uint32_t mid = sender < n ? sender : n;
  for (std::uint32_t r = 0; r < mid; ++r) {
    out[r] = adversary.honest_delay(round, sender, r, block);
  }
  for (std::uint32_t r = mid + 1; r < n; ++r) {
    out[r] = adversary.honest_delay(round, sender, r, block);
  }
}

/// Strategy interface.  One instance drives the corrupted miners for the
/// whole execution.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Delay ∈ [1, Δ] for `block`, broadcast by honest `sender` at `round`,
  /// toward honest `recipient` (capability ①): the delay rule a strategy
  /// defines.  The engine reads it through honest_delays, once per
  /// broadcast; the per-recipient reference model in tests/sim reads it
  /// directly, so the two must agree.  The engine clamps the result into
  /// [1, Δ] defensively.
  [[nodiscard]] virtual std::uint64_t honest_delay(
      std::uint64_t round, std::uint32_t sender, std::uint32_t recipient,
      protocol::BlockIndex block) = 0;

  /// Every recipient's delay for one honest broadcast at once: the engine
  /// calls this once per honest block, with out.size() = honest count.
  /// Must set out[r] = honest_delay(round, sender, r, block) for every
  /// r ≠ sender and leave out[sender] untouched.  The default loops over
  /// honest_delay in ascending r, so a wrapper that overrides only
  /// honest_delay stays correct; built-in strategies override this with
  /// fill_honest_delays(*this, ...) to drop the per-recipient virtual call.
  virtual void honest_delays(std::uint64_t round, std::uint32_t sender,
                             protocol::BlockIndex block,
                             std::span<std::uint64_t> out) {
    fill_honest_delays(*this, round, sender, block, out);
  }

  /// Notification that an honest block was mined this round (rushing
  /// adversaries observe it before choosing their own actions).
  virtual void on_honest_block(std::uint64_t round,
                               protocol::BlockIndex block) {
    (void)round;
    (void)block;
  }

  /// The adversary's turn: mine with the round's query budget and publish
  /// (or keep withholding) blocks via `ops`.
  virtual void act(AdversaryOps& ops) = 0;

  /// Quiet-round contract (quiet-round skipping): return true iff act()
  /// is observably a no-op — no publication, no internal state change that
  /// could alter any later action — in every round where (a) no honest
  /// block was mined or delivered since the previous executed act() call
  /// and (b) all of this round's mining queries would fail.  A declaring
  /// strategy must not key decisions on the round number or on how often
  /// act() ran.  Engines may then skip act() entirely in such rounds; the
  /// per-strategy skip-vs-noskip differential test
  /// (tests/sim/test_quiet_skip_equivalence.cpp) enforces the claim.  Default
  /// false: opting in is a reviewed decision, not an inference.
  [[nodiscard]] virtual bool quiet_act_is_noop() const { return false; }

  /// Human-readable strategy name for reports.
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace neatbound::sim
