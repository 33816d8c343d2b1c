// Protocol-level ground truth for Lemma 1: at the END of a convergence
// opportunity (the F‖P pattern H N^{≥Δ} H₁ N^Δ), all honest players agree
// on a single longest chain — provided no adversary block interferes.
//
// We run the engine with the worst benign delivery (every honest message
// delayed the full Δ, corrupted miners withholding everything), record
// every round's honest tips and honest block count via the observer hook,
// locate the pattern occurrences from those counts, and assert literal
// tip equality at each pattern end.  This is the strongest executable
// statement of the paper's convergence-opportunity semantics.
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/strategies.hpp"

namespace neatbound::sim {
namespace {

struct RoundSnapshot {
  std::vector<protocol::BlockIndex> tips;
  bool all_equal = false;
  std::uint32_t honest_mined = 0;
};

class Lemma1Agreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Agreement, AllTipsEqualAtOpportunityEnd) {
  const std::uint64_t delta = GetParam();
  EngineConfig config;
  config.miner_count = 24;
  config.adversary_fraction = 0.25;  // they mine, but never publish
  config.delta = delta;
  config.p = 0.003;
  config.rounds = 8000;
  config.seed = 77;

  std::vector<RoundSnapshot> history;
  history.reserve(config.rounds);
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(delta));
  const RunResult result = engine.run(
      [&history](const ExecutionEngine& e, std::uint64_t) {
        RoundSnapshot snap;
        snap.tips.assign(e.honest_tips().begin(), e.honest_tips().end());
        snap.all_equal = true;
        for (const auto tip : snap.tips) {
          snap.all_equal &= (tip == snap.tips[0]);
        }
        snap.honest_mined = e.round_activity().honest_mined;
        history.push_back(std::move(snap));
      });
  ASSERT_EQ(history.size(), config.rounds);
  ASSERT_GT(result.convergence_opportunities, 0u);

  // Locate pattern ends: round t (0-based in history) has exactly one
  // honest block, ≥Δ quiet before (genesis seeds the first gap), and Δ
  // quiet after; the opportunity completes at t+Δ.
  std::uint64_t quiet_before = delta;
  std::uint64_t checked = 0;
  std::vector<std::uint32_t> counts;
  for (const RoundSnapshot& snap : history) counts.push_back(snap.honest_mined);
  for (std::size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] == 0) {
      ++quiet_before;
      continue;
    }
    if (counts[t] == 1 && quiet_before >= delta &&
        t + delta < counts.size()) {
      bool quiet_after = true;
      for (std::size_t j = t + 1; j <= t + delta; ++j) {
        quiet_after &= (counts[j] == 0);
      }
      if (quiet_after) {
        // history[k] is the snapshot after round k+1; pattern end round
        // is (t+1)+delta, i.e. index t+delta.
        const RoundSnapshot& snap = history[t + delta];
        EXPECT_TRUE(snap.all_equal)
            << "tips diverge at the end of the opportunity anchored at "
               "round "
            << t + 1;
        ++checked;
      }
    }
    quiet_before = 0;
  }
  EXPECT_EQ(checked, result.convergence_opportunities);
}

INSTANTIATE_TEST_SUITE_P(Deltas, Lemma1Agreement,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(Lemma1Agreement, ObserverSeesEveryRound) {
  EngineConfig config;
  config.miner_count = 8;
  config.adversary_fraction = 0.0;
  config.delta = 2;
  config.p = 0.01;
  config.rounds = 100;
  config.seed = 5;
  std::uint64_t calls = 0;
  std::uint64_t last_round = 0;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  (void)engine.run([&](const ExecutionEngine&, std::uint64_t round) {
    ++calls;
    EXPECT_EQ(round, last_round + 1);
    last_round = round;
  });
  EXPECT_EQ(calls, 100u);
}

}  // namespace
}  // namespace neatbound::sim
