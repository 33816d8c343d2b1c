#include "reference_engine.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "block_records.hpp"
#include "chains/convergence.hpp"
#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"
#include "protocol/mining.hpp"
#include "sim/draws.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::sim::reference {
namespace {

using protocol::BlockIndex;
using Chain = std::vector<BlockIndex>;  // genesis first

/// a ≤ b: `a` is a prefix of `b`.
bool is_prefix(std::span<const BlockIndex> a, std::span<const BlockIndex> b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// `chain` with its last `t` blocks removed (genesis is never removed).
std::span<const BlockIndex> pruned(const Chain& chain, std::uint64_t t) {
  const std::size_t keep =
      t >= chain.size() ? 1 : chain.size() - static_cast<std::size_t>(t);
  return std::span<const BlockIndex>(chain).first(keep);
}

/// Least T such that each chain with its last T blocks pruned is a prefix
/// of the other (Definition 1 applied both ways).  The condition is
/// monotone in T, so bisect.
std::uint64_t divergence(const Chain& a, const Chain& b) {
  const auto holds = [&](std::uint64_t t) {
    return is_prefix(pruned(a, t), b) && is_prefix(pruned(b, t), a);
  };
  std::uint64_t lo = 0;
  std::uint64_t hi = std::max(a.size(), b.size()) - 1;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (holds(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

struct View {
  std::set<BlockIndex> known{protocol::kGenesisIndex};
  Chain chain{protocol::kGenesisIndex};
  std::vector<BlockIndex> orphans;  ///< arrival order
};

struct Outcome {
  bool adopted = false;
  std::uint64_t depth = 0;
};

class Model;

class Ops final : public AdversaryOps {
 public:
  Ops(Model& model, std::uint64_t round) : model_(model), round_(round) {}
  [[nodiscard]] const protocol::BlockStore& store() const override;
  [[nodiscard]] std::uint64_t round() const override { return round_; }
  [[nodiscard]] std::uint64_t delta() const override;
  [[nodiscard]] std::uint32_t honest_count() const override;
  [[nodiscard]] std::span<const BlockIndex> honest_tips() const override;
  [[nodiscard]] BlockIndex best_honest_tip() const override;
  [[nodiscard]] std::uint64_t remaining_queries() const override;
  std::optional<BlockIndex> mine_on(BlockIndex parent) override;
  std::span<const BlockIndex> mine_run(BlockIndex parent,
                                       std::uint64_t k) override;
  void publish_to(std::uint32_t recipient, BlockIndex block,
                  std::uint64_t delay) override;
  void publish_to_all(BlockIndex block, std::uint64_t delay) override;

 private:
  Model& model_;
  std::uint64_t round_;
  std::vector<BlockIndex> run_;
};

class Model {
 public:
  Model(const EngineConfig& config, std::unique_ptr<Adversary> adversary)
      : config_(config),
        honest_(honest_miner_count(config)),
        budget_(config.miner_count - honest_),
        key_(engine_rng_key(config)),
        oracle_(mix64(config.seed ^ 0x5bd1e995u)),
        adversary_(std::move(adversary)),
        views_(honest_),
        tips_(honest_, protocol::kGenesisIndex) {
    honest_gaps_ = GapCursor(key_, crng::Purpose::kHonestGap, config.p);
    if (budget_ > 0) {
      adversary_gaps_ =
          GapCursor(key_, crng::Purpose::kAdversaryGap, config.p);
    }
  }

  ReferenceRun run() {
    ReferenceRun out;
    for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
      step(round);
      out.rounds.push_back({activity_, tips_});
    }
    RunResult& r = out.result;
    for (const std::uint32_t c : honest_counts_) r.honest_blocks_total += c;
    r.adversary_blocks_total = adversary_blocks_;
    r.convergence_opportunities =
        chains::count_convergence_opportunities(honest_counts_, config_.delta);
    r.max_reorg_depth = max_reorg_;
    r.max_divergence = max_divergence_;
    r.disagreement_rounds = disagreement_rounds_;
    r.violation_depth = std::max(max_reorg_, max_divergence_);
    const Chain& best = views_[best_view()].chain;
    r.chain.best_height = best.size() - 1;
    r.chain.growth_per_round = static_cast<double>(r.chain.best_height) /
                               static_cast<double>(config_.rounds);
    for (const BlockIndex b : best) {
      if (b == protocol::kGenesisIndex) continue;
      if (records_.blocks()[b].miner_class ==
          protocol::MinerClass::kAdversary) {
        ++r.chain.adversary_blocks_in_chain;
      } else {
        ++r.chain.honest_blocks_in_chain;
      }
    }
    const std::uint64_t total =
        r.chain.honest_blocks_in_chain + r.chain.adversary_blocks_in_chain;
    r.chain.quality = total == 0
                          ? 1.0
                          : static_cast<double>(r.chain.honest_blocks_in_chain) /
                                static_cast<double>(total);
    r.store_size = store_.size();
    out.blocks.assign(records_.blocks().begin(), records_.blocks().end());
    return out;
  }

 private:
  friend class Ops;

  Chain chain_to(BlockIndex tip) const {
    Chain chain;
    for (BlockIndex b = tip; b != protocol::kGenesisIndex; b = parent_of(b)) {
      chain.push_back(b);
    }
    chain.push_back(protocol::kGenesisIndex);
    std::reverse(chain.begin(), chain.end());
    return chain;
  }

  BlockIndex parent_of(BlockIndex b) const {
    return records_.blocks()[b].parent;
  }

  /// Highest tip; among equal heights the lowest-indexed view.
  std::uint32_t best_view() const {
    std::uint32_t best = 0;
    for (std::uint32_t v = 1; v < honest_; ++v) {
      if (views_[v].chain.size() > views_[best].chain.size()) best = v;
    }
    return best;
  }

  BlockIndex add_block(BlockIndex parent, std::uint64_t round,
                       std::uint64_t actor, crng::Purpose purpose,
                       std::uint32_t miner, protocol::MinerClass cls) {
    const crng::Block draws = crng::philox4x64(
        {round, actor, static_cast<std::uint64_t>(purpose), 0}, key_);
    protocol::Block block = protocol::assemble_block(
        oracle_, store_.hash_of(parent), draws[1], draws[0]);
    block.parent = parent;
    block.round = round;
    block.miner = miner;
    block.miner_class = cls;
    const BlockIndex index = records_.add(block);
    const BlockIndex stored = store_.add(std::move(block));
    NEATBOUND_EXPECTS(stored == index, "index drift");
    return index;
  }

  void send(std::uint64_t due, std::uint32_t recipient, BlockIndex block) {
    in_flight_.emplace(std::make_pair(due, seq_++),
                       std::make_pair(recipient, block));
  }

  std::uint64_t clamp(std::uint64_t d) const {
    return std::clamp<std::uint64_t>(d, 1, config_.delta);
  }

  /// An adversary publication reaching its first honest recipient at
  /// `due`: every honest player hears the block Δ rounds later.
  void echo(std::uint64_t due, BlockIndex block) {
    if (!echoed_.insert(block).second) return;
    for (std::uint32_t v = 0; v < honest_; ++v) {
      send(due + config_.delta, v, block);
    }
  }

  void consider(View& view, BlockIndex candidate, Outcome& out) const {
    Chain chain = chain_to(candidate);
    if (chain.size() <= view.chain.size()) return;  // first received wins
    std::size_t common = 0;
    while (common < view.chain.size() &&
           view.chain[common] == chain[common]) {
      ++common;
    }
    out.adopted = true;
    out.depth = std::max<std::uint64_t>(out.depth,
                                        view.chain.size() - common);
    view.chain = std::move(chain);
  }

  void activate(View& view, BlockIndex block, Outcome& out) const {
    view.known.insert(block);
    consider(view, block, out);
    std::vector<BlockIndex> children;
    for (auto it = view.orphans.begin(); it != view.orphans.end();) {
      if (parent_of(*it) == block) {
        children.push_back(*it);
        it = view.orphans.erase(it);
      } else {
        ++it;
      }
    }
    for (const BlockIndex child : children) activate(view, child, out);
  }

  Outcome deliver(std::uint32_t v, BlockIndex block) {
    View& view = views_[v];
    Outcome out;
    if (view.known.count(block) != 0) return out;
    if (view.known.count(parent_of(block)) == 0) {
      if (std::find(view.orphans.begin(), view.orphans.end(), block) ==
          view.orphans.end()) {
        view.orphans.push_back(block);
      }
      return out;
    }
    activate(view, block, out);
    return out;
  }

  void record(std::uint32_t v, const Outcome& out) {
    tips_[v] = views_[v].chain.back();
    if (!out.adopted) return;
    ++activity_.adoptions;
    max_reorg_ = std::max(max_reorg_, out.depth);
    if (out.depth > activity_.max_reorg_depth) {
      activity_.max_reorg_depth = out.depth;
      activity_.max_reorg_view = v;
    }
  }

  void step(std::uint64_t round) {
    activity_ = {};
    while (!in_flight_.empty() && in_flight_.begin()->first.first <= round) {
      const auto [recipient, block] = in_flight_.begin()->second;
      in_flight_.erase(in_flight_.begin());
      ++activity_.delivered;
      record(recipient, deliver(recipient, block));
    }

    std::vector<std::uint32_t> miners;
    const std::uint64_t end = round * honest_;
    while (honest_gaps_.peek() < end) {
      miners.push_back(
          static_cast<std::uint32_t>(honest_gaps_.take() - (end - honest_)));
    }
    for (const std::uint32_t m : miners) {
      const BlockIndex block =
          add_block(views_[m].chain.back(), round, m,
                    crng::Purpose::kHonestBlock, m,
                    protocol::MinerClass::kHonest);
      ++activity_.honest_mined;
      record(m, deliver(m, block));
      adversary_->on_honest_block(round, block);
      for (std::uint32_t v = 0; v < honest_; ++v) {
        if (v == m) continue;
        send(round + clamp(adversary_->honest_delay(round, m, v, block)), v,
             block);
      }
      echoed_.insert(block);
    }
    honest_counts_.push_back(activity_.honest_mined);

    if (budget_ > 0) {
      successes_.clear();
      const std::uint64_t base = (round - 1) * budget_;
      while (adversary_gaps_.peek() < base + budget_) {
        successes_.insert(adversary_gaps_.take() - base);
      }
      remaining_ = budget_;
      Ops ops(*this, round);
      adversary_->act(ops);
    }

    std::vector<BlockIndex> distinct;
    for (const View& view : views_) {
      if (std::find(distinct.begin(), distinct.end(), view.chain.back()) ==
          distinct.end()) {
        distinct.push_back(view.chain.back());
      }
    }
    if (distinct.size() < 2) return;
    ++disagreement_rounds_;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      for (std::size_t j = i + 1; j < distinct.size(); ++j) {
        max_divergence_ = std::max(
            max_divergence_,
            divergence(chain_to(distinct[i]), chain_to(distinct[j])));
      }
    }
  }

  EngineConfig config_;
  std::uint32_t honest_;
  std::uint32_t budget_;
  crng::Key key_;
  protocol::RandomOracle oracle_;
  std::unique_ptr<Adversary> adversary_;
  GapCursor honest_gaps_;
  GapCursor adversary_gaps_;
  protocol::BlockStore store_;
  BlockRecords records_;
  std::vector<View> views_;
  std::vector<BlockIndex> tips_;
  std::multimap<std::pair<std::uint64_t, std::uint64_t>,
                std::pair<std::uint32_t, BlockIndex>>
      in_flight_;
  std::uint64_t seq_ = 0;
  std::set<BlockIndex> echoed_;
  std::set<std::uint64_t> successes_;  ///< this round's winning queries
  std::uint64_t remaining_ = 0;
  RoundActivity activity_;
  std::vector<std::uint32_t> honest_counts_;
  std::uint64_t adversary_blocks_ = 0;
  std::uint64_t max_reorg_ = 0;
  std::uint64_t max_divergence_ = 0;
  std::uint64_t disagreement_rounds_ = 0;
};

const protocol::BlockStore& Ops::store() const { return model_.store_; }
std::uint64_t Ops::delta() const { return model_.config_.delta; }
std::uint32_t Ops::honest_count() const { return model_.honest_; }
std::span<const BlockIndex> Ops::honest_tips() const { return model_.tips_; }
BlockIndex Ops::best_honest_tip() const {
  return model_.tips_[model_.best_view()];
}
std::uint64_t Ops::remaining_queries() const { return model_.remaining_; }

std::optional<BlockIndex> Ops::mine_on(BlockIndex parent) {
  NEATBOUND_EXPECTS(model_.remaining_ > 0, "adversary query budget exhausted");
  const std::uint64_t query = model_.budget_ - model_.remaining_;
  --model_.remaining_;
  if (model_.successes_.count(query) == 0) return std::nullopt;
  ++model_.adversary_blocks_;
  ++model_.activity_.adversary_mined;
  return model_.add_block(parent, round_, query,
                          crng::Purpose::kAdversaryBlock, model_.honest_,
                          protocol::MinerClass::kAdversary);
}

std::span<const BlockIndex> Ops::mine_run(BlockIndex parent,
                                          std::uint64_t k) {
  run_.clear();
  for (std::uint64_t i = 0; i < k; ++i) {
    if (const auto mined = mine_on(parent)) {
      parent = *mined;
      run_.push_back(parent);
    }
  }
  return run_;
}

void Ops::publish_to(std::uint32_t recipient, BlockIndex block,
                     std::uint64_t delay) {
  NEATBOUND_EXPECTS(recipient < model_.honest_, "recipient out of range");
  NEATBOUND_EXPECTS(block < model_.store_.size(), "unknown block");
  const std::uint64_t due = round_ + model_.clamp(delay);
  model_.send(due, recipient, block);
  model_.echo(due, block);
}

void Ops::publish_to_all(BlockIndex block, std::uint64_t delay) {
  NEATBOUND_EXPECTS(block < model_.store_.size(), "unknown block");
  const std::uint64_t due = round_ + model_.clamp(delay);
  for (std::uint32_t v = 0; v < model_.honest_; ++v) {
    model_.send(due, v, block);
  }
  model_.echo(due, block);
}

}  // namespace

ReferenceRun run_reference(const EngineConfig& config,
                           std::unique_ptr<Adversary> adversary) {
  NEATBOUND_EXPECTS(adversary != nullptr, "an adversary is required");
  return Model(config, std::move(adversary)).run();
}

}  // namespace neatbound::sim::reference
