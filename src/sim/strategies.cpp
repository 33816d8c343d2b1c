#include "sim/strategies.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace neatbound::sim {

// ---------------------------------------------------------------------------
// MaxDelayAdversary
// ---------------------------------------------------------------------------

void MaxDelayAdversary::act(AdversaryOps& ops) {
  // Mine with the full budget but never publish: A(t₀, t₀+T−1) is counted
  // while honest mining patterns stay untouched.
  while (ops.remaining_queries() > 0) {
    if (const auto mined = ops.mine_on(private_tip_)) {
      private_tip_ = *mined;
    }
  }
}

// ---------------------------------------------------------------------------
// PrivateWithholdAdversary
// ---------------------------------------------------------------------------

PrivateWithholdAdversary::PrivateWithholdAdversary()
    : PrivateWithholdAdversary(Options{}) {}

PrivateWithholdAdversary::PrivateWithholdAdversary(Options options)
    : options_(options) {}

std::uint64_t PrivateWithholdAdversary::honest_delay(std::uint64_t,
                                                     std::uint32_t,
                                                     std::uint32_t,
                                                     protocol::BlockIndex) {
  // Slow the honest network as much as the model allows.
  return ~0ULL;  // clamped to Δ by the engine
}

void PrivateWithholdAdversary::act(AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  if (!initialized_) {
    initialized_ = true;
    fork_base_ = protocol::kGenesisIndex;
    private_tip_ = protocol::kGenesisIndex;
  }
  const protocol::BlockIndex best = ops.best_honest_tip();
  const std::uint64_t best_height = store.height_of(best);

  // Abandon hopeless forks: restart from the current best honest tip.
  if (best_height >
      store.height_of(private_tip_) + options_.give_up_margin) {
    fork_base_ = best;
    private_tip_ = best;
    withheld_.clear();
  }

  // Spend the whole budget extending the private fork.
  while (ops.remaining_queries() > 0) {
    if (const auto mined = ops.mine_on(private_tip_)) {
      private_tip_ = *mined;
      // neatbound-analyze: allow(hot-alloc) — one amortized append per
      // adversary block mined, not per round.
      withheld_.push_back(*mined);
    }
  }

  // Release when the private fork overtakes the public chain AND the reorg
  // it forces is deep enough to be worth burning the lead.
  if (store.height_of(private_tip_) > best_height && !withheld_.empty()) {
    const std::uint64_t reorg_depth =
        best_height - store.common_prefix_height(best, private_tip_);
    if (reorg_depth >= options_.min_fork_depth) {
      for (const protocol::BlockIndex block : withheld_) {
        ops.publish_to_all(block, 1);
      }
      withheld_.clear();
      ++releases_;
      // Keep mining on our own (now public) tip.
      fork_base_ = private_tip_;
    }
  }
}

// ---------------------------------------------------------------------------
// HonestPartition
// ---------------------------------------------------------------------------

HonestPartition::HonestPartition(std::uint32_t honest_count)
    : honest_count_(honest_count), split_(honest_count / 2) {
  NEATBOUND_EXPECTS(honest_count >= 2,
                    "a chain split needs at least two honest miners");
}

protocol::BlockIndex HonestPartition::group_tip(const AdversaryOps& ops,
                                                std::uint8_t group) const {
  const auto tips = ops.honest_tips();
  const protocol::BlockStore& store = ops.store();
  protocol::BlockIndex best = protocol::kGenesisIndex;
  for (std::uint32_t m = 0; m < tips.size(); ++m) {
    if (group_of(m) != group) continue;
    if (store.height_of(tips[m]) > store.height_of(best)) best = tips[m];
  }
  return best;
}

void HonestPartition::publish_to_group(AdversaryOps& ops,
                                       protocol::BlockIndex block,
                                       std::uint8_t group) const {
  for (std::uint32_t m = 0; m < honest_count_; ++m) {
    if (group_of(m) == group) ops.publish_to(m, block, 1);
  }
}

void HonestPartition::sync_branches(const AdversaryOps& ops,
                                    protocol::BlockIndex branch[2],
                                    std::uint64_t reset_margin) const {
  const protocol::BlockStore& store = ops.store();
  for (const std::uint8_t g : {std::uint8_t{0}, std::uint8_t{1}}) {
    const protocol::BlockIndex gt = group_tip(ops, g);
    // Honest miners of side g extended our branch: follow them.  A branch
    // hopelessly behind what the group actually mines on (they deserted)
    // is re-anchored on their chain.
    if (store.is_ancestor(branch[g], gt) ||
        store.height_of(gt) > store.height_of(branch[g]) + reset_margin) {
      branch[g] = gt;
    }
  }
  // Collapse detection: both tips on one chain → remember the deeper one
  // and mark collapsed (equal tips).
  if (store.is_ancestor(branch[0], branch[1])) {
    branch[0] = branch[1];
  } else if (store.is_ancestor(branch[1], branch[0])) {
    branch[1] = branch[0];
  }
}

// ---------------------------------------------------------------------------
// BalanceAttackAdversary
// ---------------------------------------------------------------------------

BalanceAttackAdversary::BalanceAttackAdversary(std::uint32_t honest_count,
                                               std::uint64_t delta)
    : partition_(honest_count), delta_(delta) {}

std::uint64_t BalanceAttackAdversary::honest_delay(std::uint64_t,
                                                   std::uint32_t,
                                                   std::uint32_t,
                                                   protocol::BlockIndex) {
  // Remark 8.5 of PSS: delay EVERY honest message the full Δ.  Each side
  // then lags Δ rounds behind even its own chain's growth, which is the
  // slack window in which the adversary matches the other side's blocks
  // (the 1/ν − 1/μ ≤ 1/c accounting).
  return delta_;
}

void BalanceAttackAdversary::sync_state(const AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  // After a collapse the split-repair fork below will re-split the chain.
  partition_.sync_branches(ops, branch_, reset_margin_);
  // A repair fork that fell behind the main chain is dead weight.
  if (!repair_.empty() &&
      store.height_of(repair_.back()) + reset_margin_ <
          store.height_of(branch_[0])) {
    repair_.clear();
  }
}

void BalanceAttackAdversary::act(AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  sync_state(ops);

  while (ops.remaining_queries() > 0) {
    if (branch_[0] == branch_[1]) {
      // Collapsed: bootstrap a fresh split.  Build a private fork from
      // one block below the common tip; once strictly longer than the
      // common chain, hand it to group 1 (group 0 keeps the original —
      // its equal-or-shorter view keeps the first-received chain).
      const protocol::BlockIndex main = branch_[0];
      const protocol::BlockIndex parent =
          repair_.empty() ? store.parent_of(main) : repair_.back();
      if (const auto mined = ops.mine_on(parent)) {
        // neatbound-analyze: allow(hot-alloc) — one amortized append per
        // adversary block mined, not per round.
        repair_.push_back(*mined);
      }
      if (!repair_.empty() &&
          store.height_of(repair_.back()) > store.height_of(branch_[0])) {
        for (const protocol::BlockIndex block : repair_) {
          partition_.publish_to_group(ops, block, 1);
        }
        branch_[1] = repair_.back();
        repair_.clear();
        ++splits_;
      }
    } else {
      // Healthy split: donate to whichever branch lags.
      const std::uint64_t h0 = store.height_of(branch_[0]);
      const std::uint64_t h1 = store.height_of(branch_[1]);
      const std::uint8_t lagging = h0 <= h1 ? 0 : 1;
      if (const auto mined = ops.mine_on(branch_[lagging])) {
        partition_.publish_to_group(ops, *mined, lagging);
        branch_[lagging] = *mined;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SelfishMiningAdversary
// ---------------------------------------------------------------------------

SelfishMiningAdversary::SelfishMiningAdversary(double gamma) : gamma_(gamma) {
  NEATBOUND_EXPECTS(gamma >= 0.0 && gamma <= 1.0,
                    "selfish-mining gamma must be in [0,1]");
}

void SelfishMiningAdversary::on_honest_block(std::uint64_t,
                                             protocol::BlockIndex) {
  honest_block_this_round_ = true;
}

void SelfishMiningAdversary::act(AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  const protocol::BlockIndex best = ops.best_honest_tip();
  const std::uint64_t best_height = store.height_of(best);

  if (!initialized_) {
    initialized_ = true;
    private_tip_ = best;
    fork_base_ = best;
  }

  // Fell behind: the private fork is dead, adopt the public chain.
  if (store.height_of(private_tip_) < best_height) {
    private_chain_.clear();
    private_tip_ = best;
    fork_base_ = best;
  }

  if (honest_block_this_round_ && !private_chain_.empty()) {
    const std::uint64_t lead = store.height_of(private_tip_) - best_height;
    if (lead == 0) {
      // The public chain caught our tip height: race.  Release everything;
      // a γ-fraction of the honest miners hear our branch first.
      const auto fast = static_cast<std::uint32_t>(
          gamma_ * static_cast<double>(ops.honest_count()));
      for (const protocol::BlockIndex block : private_chain_) {
        if (fast == 0) {
          // γ = 0: everyone hears the honest block first; ours arrives at
          // the delay limit and loses every tie.
          ops.publish_to_all(block, ops.delta());
        } else {
          for (std::uint32_t m = 0; m < fast; ++m) {
            ops.publish_to(m, block, 1);
          }
          // Gossip echo delivers to the rest within Δ.
        }
      }
      private_chain_.clear();
      fork_base_ = private_tip_;
    } else if (lead == 1) {
      // We were two ahead and honest closed to one: publish all and win.
      for (const protocol::BlockIndex block : private_chain_) {
        ops.publish_to_all(block, 1);
      }
      private_chain_.clear();
      fork_base_ = private_tip_;
    } else {
      // Comfortable lead: reveal just enough to match the public height.
      while (!private_chain_.empty() &&
             store.height_of(private_chain_.front()) <= best_height) {
        ops.publish_to_all(private_chain_.front(), 1);
        private_chain_.erase(private_chain_.begin());
      }
    }
  }
  honest_block_this_round_ = false;

  while (ops.remaining_queries() > 0) {
    if (const auto mined = ops.mine_on(private_tip_)) {
      private_tip_ = *mined;
      // neatbound-analyze: allow(hot-alloc) — one amortized append per
      // adversary block mined, not per round.
      private_chain_.push_back(*mined);
    }
  }
}

// ---------------------------------------------------------------------------
// ForkBalancerAdversary
// ---------------------------------------------------------------------------

ForkBalancerAdversary::ForkBalancerAdversary(std::uint32_t honest_count,
                                             std::uint64_t delta)
    : partition_(honest_count), delta_(delta) {}

std::uint64_t ForkBalancerAdversary::honest_delay(std::uint64_t,
                                                  std::uint32_t sender,
                                                  std::uint32_t recipient,
                                                  protocol::BlockIndex) {
  // Keep the halves Δ apart but let each half hear itself fast — the
  // equivocating siblings only split the network if each side adopts its
  // own child before the other side's propagates.
  if (sender >= partition_.honest_count() ||
      recipient >= partition_.honest_count()) {
    return delta_;
  }
  return partition_.group_of(sender) == partition_.group_of(recipient)
             ? 1
             : delta_;
}

void ForkBalancerAdversary::act(AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  partition_.sync_branches(ops, branch_, reset_margin_);

  while (ops.remaining_queries() > 0) {
    if (branch_[0] == branch_[1]) {
      // Collapsed: build an equivocating sibling pair on the common tip.
      // The first child is withheld; once the second lands, each half
      // receives one sibling and adopts it (both extend the tip, so the
      // longest-chain rule switches immediately).
      const protocol::BlockIndex parent = branch_[0];
      if (pending_valid_ && pending_parent_ != parent) {
        // The chain moved under a half-built pair; the orphan child can
        // never split at the front any more.
        pending_valid_ = false;
      }
      if (const auto mined = ops.mine_on(parent)) {
        if (!pending_valid_) {
          pending_child_ = *mined;
          pending_parent_ = parent;
          pending_valid_ = true;
        } else {
          partition_.publish_to_group(ops, pending_child_, 0);
          partition_.publish_to_group(ops, *mined, 1);
          branch_[0] = pending_child_;
          branch_[1] = *mined;
          pending_valid_ = false;
          ++equivocations_;
        }
      }
    } else {
      // Healthy split: donate to whichever branch lags so neither side
      // ever has a strictly-longer chain to defect to.
      const std::uint64_t h0 = store.height_of(branch_[0]);
      const std::uint64_t h1 = store.height_of(branch_[1]);
      const std::uint8_t lagging = h0 <= h1 ? 0 : 1;
      if (const auto mined = ops.mine_on(branch_[lagging])) {
        partition_.publish_to_group(ops, *mined, lagging);
        branch_[lagging] = *mined;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DelaySaturatingWithholder
// ---------------------------------------------------------------------------

DelaySaturatingWithholder::DelaySaturatingWithholder()
    : DelaySaturatingWithholder(Options{}) {}

DelaySaturatingWithholder::DelaySaturatingWithholder(Options options)
    : options_(options) {
  NEATBOUND_EXPECTS(options.rebase_margin >= 1,
                    "rebase margin must be >= 1");
}

void DelaySaturatingWithholder::act(AdversaryOps& ops) {
  const protocol::BlockStore& store = ops.store();
  const protocol::BlockIndex best = ops.best_honest_tip();
  const std::uint64_t best_height = store.height_of(best);

  // Stubborn, but not suicidal: only rebase once hopelessly behind.
  if (best_height >
      store.height_of(private_tip_) + options_.rebase_margin) {
    private_tip_ = best;
    withheld_.clear();
  }

  while (ops.remaining_queries() > 0) {
    if (const auto mined = ops.mine_on(private_tip_)) {
      private_tip_ = *mined;
      // neatbound-analyze: allow(hot-alloc) — one amortized append per
      // adversary block mined, not per round.
      withheld_.push_back(*mined);
    }
  }

  // Overtake with the minimal prefix: publish withheld blocks up to height
  // best + 1 and bank the rest as an unrevealed lead.
  if (store.height_of(private_tip_) > best_height) {
    while (!withheld_.empty() &&
           store.height_of(withheld_.front()) <= best_height + 1) {
      ops.publish_to_all(withheld_.front(), 1);
      withheld_.pop_front();
      ++released_;
    }
  }
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

const char* adversary_kind_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNull:
      return "null";
    case AdversaryKind::kMaxDelay:
      return "max-delay";
    case AdversaryKind::kPrivateWithhold:
      return "private-withhold";
    case AdversaryKind::kBalanceAttack:
      return "balance-attack";
    case AdversaryKind::kSelfishMining:
      return "selfish-mining";
    case AdversaryKind::kForkBalancer:
      return "fork-balancer";
    case AdversaryKind::kDelaySaturate:
      return "delay-saturate";
  }
  return "?";
}

std::unique_ptr<Adversary> make_adversary(AdversaryKind kind,
                                          std::uint32_t honest_count,
                                          std::uint64_t delta) {
  switch (kind) {
    case AdversaryKind::kNull:
      return std::make_unique<NullAdversary>();
    case AdversaryKind::kMaxDelay:
      return std::make_unique<MaxDelayAdversary>(delta);
    case AdversaryKind::kPrivateWithhold:
      return std::make_unique<PrivateWithholdAdversary>();
    case AdversaryKind::kBalanceAttack:
      return std::make_unique<BalanceAttackAdversary>(honest_count, delta);
    case AdversaryKind::kSelfishMining:
      return std::make_unique<SelfishMiningAdversary>();
    case AdversaryKind::kForkBalancer:
      return std::make_unique<ForkBalancerAdversary>(honest_count, delta);
    case AdversaryKind::kDelaySaturate:
      return std::make_unique<DelaySaturatingWithholder>();
  }
  NEATBOUND_ENSURES(false, "unknown adversary kind");
  return nullptr;
}

}  // namespace neatbound::sim
