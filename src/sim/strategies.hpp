// Adversary strategies.
//
// * NullAdversary        — corrupted miners idle; messages arrive next
//                          round.  The synchronous, benign baseline.
// * MaxDelayAdversary    — every honest message is delayed the full Δ and
//                          the corrupted miners mine privately but never
//                          publish.  This realizes exactly the two counting
//                          processes Theorem 1 compares — C(t₀,t₀+T−1) under
//                          worst-case benign delivery, and A(t₀,t₀+T−1) —
//                          without strategic interference; used to validate
//                          Eqs. (26) and (27).
// * PrivateWithholdAdversary — the consistency/double-spend attacker:
//                          mines a private fork, delays honest traffic by
//                          Δ, and releases the fork once it is strictly
//                          longer than the best honest chain and at least
//                          `min_fork_depth` deep, forcing a reorg.
// * BalanceAttackAdversary — the PSS Remark 8.5 chain-splitting attacker:
//                          partitions honest miners into two halves kept
//                          Δ apart, and donates adversary blocks to the
//                          lagging side to keep both chains level.
// * SelfishMiningAdversary — Eyal–Sirer selfish mining (chain-quality
//                          attack): maintains a private lead, releases
//                          competing blocks on honest discoveries.
// * ForkBalancerAdversary — equivocating fork balancer: splits the honest
//                          miners with a *sibling pair* (two children of
//                          one parent fed to opposite halves), then keeps
//                          the two branches level by donating blocks to
//                          the lagging side; cross-partition honest
//                          traffic is delayed the full Δ.
// * DelaySaturatingWithholder — saturates every honest delay at Δ and
//                          mines a stubborn private fork, releasing only
//                          the minimal prefix needed to overtake the
//                          public chain while banking the rest as a
//                          persistent lead.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "sim/adversary.hpp"

namespace neatbound::sim {

class NullAdversary final : public Adversary {
 public:
  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return 1;
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps&) override {}
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "null"; }
};

class MaxDelayAdversary final : public Adversary {
 public:
  explicit MaxDelayAdversary(std::uint64_t delta) : delta_(delta) {}
  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return delta_;
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps& ops) override;
  /// Quiet rounds only attempt (failing) private-tip queries.
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "max-delay"; }

 private:
  std::uint64_t delta_;
  protocol::BlockIndex private_tip_ = protocol::kGenesisIndex;
};

class PrivateWithholdAdversary final : public Adversary {
 public:
  struct Options {
    std::uint64_t min_fork_depth = 2;  ///< only release reorgs this deep
    std::uint64_t give_up_margin = 6;  ///< abandon a fork this far behind
  };
  PrivateWithholdAdversary();
  explicit PrivateWithholdAdversary(Options options);

  /// Slow the honest network as much as the model allows.
  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return ~0ULL;  // clamped to Δ by the engine
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps& ops) override;
  /// Give-up and release decisions depend only on (best height, private
  /// height, withheld stock), all unchanged in a quiet round, and both
  /// were already settled idempotently by the previous act().
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override {
    return "private-withhold";
  }

  [[nodiscard]] std::uint64_t successful_releases() const noexcept {
    return releases_;
  }

 private:
  Options options_;
  protocol::BlockIndex private_tip_ = protocol::kGenesisIndex;
  protocol::BlockIndex fork_base_ = protocol::kGenesisIndex;
  std::vector<protocol::BlockIndex> withheld_;
  std::uint64_t releases_ = 0;
  bool initialized_ = false;
};

/// Fixed two-halves partition of the honest miners, with the branch
/// bookkeeping the chain-splitting adversaries (balance attack, fork
/// balancer) share: miners [0, n/2) are group 0, the rest group 1.
class HonestPartition {
 public:
  /// EXPECTS at least two honest miners (both sides non-empty).
  explicit HonestPartition(std::uint32_t honest_count);

  [[nodiscard]] std::uint32_t honest_count() const noexcept {
    return honest_count_;
  }
  [[nodiscard]] std::uint8_t group_of(std::uint32_t miner) const noexcept {
    return miner < split_ ? 0 : 1;
  }
  /// Tip of the best chain each group works on, in one pass over the
  /// honest tips: the highest tip among the group's miners, the first
  /// one in miner order on a tie (genesis while none is higher).
  [[nodiscard]] std::array<protocol::BlockIndex, 2> group_tips(
      const AdversaryOps& ops) const;
  void publish_to_group(AdversaryOps& ops, protocol::BlockIndex block,
                        std::uint8_t group) const;
  /// Refreshes the two tracked branch tips from honest progress: follow a
  /// group's tip when it extends our branch, re-anchor when the group
  /// deserted beyond `reset_margin`, and normalize a collapse (both tips
  /// on one chain → both set to the deeper tip, so branch[0] == branch[1]
  /// signals "single chain").
  void sync_branches(const AdversaryOps& ops, protocol::BlockIndex branch[2],
                     std::uint64_t reset_margin) const;

 private:
  std::uint32_t honest_count_;
  std::uint32_t split_;  ///< miners [0, split) are group 0
};

class BalanceAttackAdversary final : public Adversary {
 public:
  /// `honest_count` is needed up front to fix the partition.
  explicit BalanceAttackAdversary(std::uint32_t honest_count,
                                  std::uint64_t delta);

  /// Remark 8.5 of PSS: delay EVERY honest message the full Δ.  Each side
  /// then lags Δ rounds behind even its own chain's growth, which is the
  /// slack window in which the adversary matches the other side's blocks
  /// (the 1/ν − 1/μ ≤ 1/c accounting).
  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return delta_;
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps& ops) override;
  /// sync_state is idempotent under unchanged tips, and publication only
  /// follows a successful query or a repair fork already released by the
  /// previous act().
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "balance-attack"; }

  /// Number of times the attacker (re)split the honest miners onto two
  /// branches — diagnostic for the attack-region bench.
  [[nodiscard]] std::uint64_t splits_performed() const noexcept {
    return splits_;
  }

 private:
  /// sync_branches plus the repair-fork pruning specific to this attack.
  void sync_state(const AdversaryOps& ops);

  HonestPartition partition_;
  std::uint64_t delta_;
  /// How far a branch may fall behind before the attacker re-anchors it.
  std::uint64_t reset_margin_ = 6;
  /// Tips of the two chains the attacker keeps balanced; equal tips mean
  /// "collapsed" (single chain) and trigger the split-repair bootstrap.
  protocol::BlockIndex branch_[2] = {protocol::kGenesisIndex,
                                     protocol::kGenesisIndex};
  /// Private fork being built to re-split a collapsed network.
  std::vector<protocol::BlockIndex> repair_;
  std::uint64_t splits_ = 0;
};

class SelfishMiningAdversary final : public Adversary {
 public:
  /// `gamma` is the Eyal–Sirer race parameter: the fraction of honest
  /// miners that hear the attacker's competing block first when a race is
  /// triggered.  The attacker's revenue advantage grows with γ.
  explicit SelfishMiningAdversary(double gamma = 0.5);

  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return 1;  // selfish mining is usually analyzed on a fast network
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override;
  void act(AdversaryOps& ops) override;
  /// Releases are gated on on_honest_block (which only fires in rounds
  /// with honest successes — never quiet), and the fell-behind rebase is
  /// idempotent under unchanged heights.
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "selfish-mining"; }

 private:
  double gamma_;
  std::vector<protocol::BlockIndex> private_chain_;  ///< unpublished lead
  protocol::BlockIndex private_tip_ = protocol::kGenesisIndex;
  protocol::BlockIndex fork_base_ = protocol::kGenesisIndex;
  bool honest_block_this_round_ = false;
  bool initialized_ = false;
};

class ForkBalancerAdversary final : public Adversary {
 public:
  /// `honest_count` fixes the two halves up front (miners [0, n/2) vs the
  /// rest), exactly like BalanceAttackAdversary's partition.
  ForkBalancerAdversary(std::uint32_t honest_count, std::uint64_t delta);

  /// Keep the halves Δ apart but let each half hear itself fast — the
  /// equivocating siblings only split the network if each side adopts its
  /// own child before the other side's propagates.
  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t,
                                           std::uint32_t sender,
                                           std::uint32_t recipient,
                                           protocol::BlockIndex) override {
    if (sender >= partition_.honest_count() ||
        recipient >= partition_.honest_count()) {
      return delta_;
    }
    return partition_.group_of(sender) == partition_.group_of(recipient)
               ? 1
               : delta_;
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps& ops) override;
  /// Equivocation pairs advance only on successful queries; branch sync
  /// and pending-pair invalidation are idempotent under unchanged tips.
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "fork-balancer"; }

  /// Sibling pairs published so far — each one is a fresh equivocation
  /// splitting the network at the same height.
  [[nodiscard]] std::uint64_t equivocations() const noexcept {
    return equivocations_;
  }

 private:
  HonestPartition partition_;
  std::uint64_t delta_;
  /// How far a branch may fall behind before re-anchoring on the group.
  std::uint64_t reset_margin_ = 6;
  /// The two tips being kept level; equal means "collapsed".
  protocol::BlockIndex branch_[2] = {protocol::kGenesisIndex,
                                     protocol::kGenesisIndex};
  /// First child of a pending equivocation (withheld until its sibling is
  /// mined), and the parent both children must extend.
  protocol::BlockIndex pending_child_ = protocol::kGenesisIndex;
  protocol::BlockIndex pending_parent_ = protocol::kGenesisIndex;
  bool pending_valid_ = false;
  std::uint64_t equivocations_ = 0;
};

class DelaySaturatingWithholder final : public Adversary {
 public:
  struct Options {
    /// Fork abandonment threshold: re-anchor on the public chain once the
    /// private tip is this many blocks behind it ("stubbornness" limit).
    std::uint64_t rebase_margin = 12;
  };
  DelaySaturatingWithholder();
  explicit DelaySaturatingWithholder(Options options);

  [[nodiscard]] std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                                           std::uint32_t,
                                           protocol::BlockIndex) override {
    return ~0ULL;  // saturate: clamped to Δ by the engine
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    fill_honest_delays(*this, round, sender, block, out);
  }
  void act(AdversaryOps& ops) override;
  /// The rebase check is idempotent and the overtake release already
  /// drained every publishable block in the previous act().
  [[nodiscard]] bool quiet_act_is_noop() const override { return true; }
  [[nodiscard]] const char* name() const override { return "delay-saturate"; }

  /// Blocks released so far (each release is the minimal overtaking
  /// prefix, so this counts forced public reorg steps).
  [[nodiscard]] std::uint64_t released_blocks() const noexcept {
    return released_;
  }

 private:
  Options options_;
  protocol::BlockIndex private_tip_ = protocol::kGenesisIndex;
  /// Oldest first; deque because the banked lead grows unboundedly while
  /// releases pop from the front one block at a time.
  std::deque<protocol::BlockIndex> withheld_;
  std::uint64_t released_ = 0;
};

}  // namespace neatbound::sim
