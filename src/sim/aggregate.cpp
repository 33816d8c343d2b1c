#include "sim/aggregate.hpp"

#include <bit>
#include <cmath>

#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::sim {

namespace {

/// Online convergence-opportunity counter (pattern H N^{≥Δ} H₁ N^Δ with
/// genesis as the implicit leading H).
class OpportunityCounter {
 public:
  explicit OpportunityCounter(std::uint64_t delta) : delta_(delta) {
    quiet_before_ = delta;  // genesis counts as an already-quiet H
  }

  void observe(std::uint32_t honest_blocks) {
    if (honest_blocks == 0) {
      ++quiet_before_;
      if (candidate_armed_) {
        ++quiet_after_;
        if (quiet_after_ >= delta_) {
          ++count_;
          candidate_armed_ = false;
        }
      }
      return;
    }
    // A non-quiet round: any armed candidate dies; a new candidate arms if
    // this round is H₁ with a long-enough quiet prefix.
    candidate_armed_ = (honest_blocks == 1 && quiet_before_ >= delta_);
    quiet_after_ = 0;
    quiet_before_ = 0;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t delta_;
  std::uint64_t quiet_before_ = 0;
  std::uint64_t quiet_after_ = 0;
  bool candidate_armed_ = false;
  std::uint64_t count_ = 0;
};

AggregateResult run_impl(const AggregateConfig& config,
                         RoundTraceSink* sink) {
  NEATBOUND_EXPECTS(config.honest_trials > 0.0, "need honest trials > 0");
  NEATBOUND_EXPECTS(config.adversary_trials >= 0.0,
                    "adversary trials must be >= 0");
  NEATBOUND_EXPECTS(config.p > 0.0 && config.p < 1.0, "p must be in (0,1)");
  NEATBOUND_EXPECTS(config.delta >= 1, "delta must be >= 1");
  NEATBOUND_EXPECTS(config.rounds >= 1, "rounds must be >= 1");

  // Binomial with real-valued trial counts: round to nearest integer
  // (exact when νn, μn are integral, which experiment configs ensure).
  const auto honest_n =
      static_cast<std::uint64_t>(std::llround(config.honest_trials));
  const auto adversary_n =
      static_cast<std::uint64_t>(std::llround(config.adversary_trials));

  // Counter-keyed draws, mirroring engine_rng_key: the cell folds the
  // trajectory-shaping parameters (trial counts, p, delta) and excludes
  // `rounds` and `seed`, so a longer run of the same configuration is a
  // bit-exact prefix extension and every round's binomials stay
  // addressable as (key, round) — no sequential state to replay.
  std::uint64_t cell = 0x61676772656e6764ULL;  // "aggrengd" domain tag
  const auto fold = [&cell](std::uint64_t v) { cell = mix64(cell ^ v); };
  fold(honest_n);
  fold(adversary_n);
  fold(std::bit_cast<std::uint64_t>(config.p));
  fold(config.delta);
  const crng::Key key{cell, config.seed};

  OpportunityCounter counter(config.delta);
  AggregateResult result;
  for (std::uint64_t t = 0; t < config.rounds; ++t) {
    crng::Stream draws(key, /*a=*/t + 1, /*b=*/0, crng::Purpose::kAggregate);
    const auto h =
        static_cast<std::uint32_t>(draws.binomial(honest_n, config.p));
    const std::uint64_t a =
        adversary_n == 0 ? 0 : draws.binomial(adversary_n, config.p);
    counter.observe(h);
    result.honest_blocks += h;
    result.adversary_blocks += a;
    if (h >= 1) ++result.h_rounds;
    if (h == 1) ++result.h1_rounds;
    if (sink != nullptr) {
      RoundRecord record;
      record.round = t + 1;  // engine rounds are 1-based
      record.honest_mined = h;
      record.adversary_mined = static_cast<std::uint32_t>(a);
      sink->on_round(record);
    }
  }
  result.convergence_opportunities = counter.count();
  return result;
}

}  // namespace

AggregateResult run_aggregate(const AggregateConfig& config) {
  return run_impl(config, nullptr);
}

AggregateResult run_aggregate_traced(const AggregateConfig& config,
                                     RoundTraceSink& sink) {
  return run_impl(config, &sink);
}

}  // namespace neatbound::sim
