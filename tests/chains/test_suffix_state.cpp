#include "chains/suffix_state.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "chains/suffix_chain.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::chains {
namespace {

TEST(SuffixStateSpace, SizeIsTwoDeltaPlusOne) {
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL, 10ULL, 64ULL}) {
    EXPECT_EQ(SuffixStateSpace(delta).size(), 2 * delta + 1);
  }
}

TEST(SuffixStateSpace, IndexBijection) {
  const SuffixStateSpace space(5);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const SuffixState s = space.state_at(i);
    EXPECT_EQ(space.index_of(s), i);
  }
}

TEST(SuffixStateSpace, IndexLayoutMatchesDocumentation) {
  const SuffixStateSpace space(4);
  EXPECT_EQ(space.state_at(0).kind, SuffixKind::kShortGapHead);
  EXPECT_EQ(space.state_at(1).kind, SuffixKind::kShortGapTail);
  EXPECT_EQ(space.state_at(1).tail, 1u);
  EXPECT_EQ(space.state_at(3).tail, 3u);
  EXPECT_EQ(space.state_at(4).kind, SuffixKind::kLongGap);
  EXPECT_EQ(space.state_at(5).kind, SuffixKind::kLongGapTail);
  EXPECT_EQ(space.state_at(5).tail, 0u);
  EXPECT_EQ(space.state_at(8).tail, 3u);
}

TEST(SuffixStateSpace, RejectsInvalidStates) {
  const SuffixStateSpace space(3);
  EXPECT_THROW((void)space.index_of({SuffixKind::kShortGapTail, 0}),
               ContractViolation);
  EXPECT_THROW((void)space.index_of({SuffixKind::kShortGapTail, 3}),
               ContractViolation);
  EXPECT_THROW((void)space.index_of({SuffixKind::kLongGapTail, 3}),
               ContractViolation);
  EXPECT_THROW((void)space.state_at(7), ContractViolation);
}

TEST(SuffixStateSpace, NamesAreDescriptive) {
  const SuffixStateSpace space(3);
  EXPECT_EQ(space.name_of({SuffixKind::kShortGapHead, 0}), "HN<=2.H");
  EXPECT_EQ(space.name_of({SuffixKind::kShortGapTail, 2}), "HN<=2.H.N2");
  EXPECT_EQ(space.name_of({SuffixKind::kLongGap, 0}), "HN>=3");
  EXPECT_EQ(space.name_of({SuffixKind::kLongGapTail, 1}), "HN>=3.H.N1");
}

// --- transition rules ①–④ of Section V-A ------------------------------

TEST(SuffixTransition, Rule3_HReturnsToHead) {
  const SuffixStateSpace space(4);
  const SuffixState head{SuffixKind::kShortGapHead, 0};
  EXPECT_EQ(space.transition(head, true), head);
  EXPECT_EQ(space.transition({SuffixKind::kShortGapTail, 2}, true), head);
  EXPECT_EQ(space.transition({SuffixKind::kLongGapTail, 3}, true), head);
}

TEST(SuffixTransition, Rule2_LongGapPlusHStartsTail) {
  const SuffixStateSpace space(4);
  const SuffixState result =
      space.transition({SuffixKind::kLongGap, 0}, true);
  EXPECT_EQ(result.kind, SuffixKind::kLongGapTail);
  EXPECT_EQ(result.tail, 0u);
}

TEST(SuffixTransition, Rule1_NExtendsShortTail) {
  const SuffixStateSpace space(4);
  SuffixState s{SuffixKind::kShortGapHead, 0};
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kShortGapTail, 1}));
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kShortGapTail, 2}));
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kShortGapTail, 3}));
  // The 4th N reaches Δ consecutive N → HN^{≥Δ} (rule ④).
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kLongGap, 0}));
}

TEST(SuffixTransition, Rule4_LongGapAbsorbsN) {
  const SuffixStateSpace space(4);
  const SuffixState lg{SuffixKind::kLongGap, 0};
  EXPECT_EQ(space.transition(lg, false), lg);
}

TEST(SuffixTransition, Rule4_LongTailCollapsesAtDelta) {
  const SuffixStateSpace space(3);
  SuffixState s{SuffixKind::kLongGapTail, 0};
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kLongGapTail, 1}));
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kLongGapTail, 2}));
  s = space.transition(s, false);
  EXPECT_EQ(s, (SuffixState{SuffixKind::kLongGap, 0}));
}

TEST(SuffixTransition, DeltaOneDegenerateSpace) {
  // Δ = 1: no short-gap tails; a single N lands in HN^{≥1} directly.
  const SuffixStateSpace space(1);
  EXPECT_EQ(space.size(), 3u);
  const SuffixState head{SuffixKind::kShortGapHead, 0};
  EXPECT_EQ(space.transition(head, false),
            (SuffixState{SuffixKind::kLongGap, 0}));
  EXPECT_EQ(space.transition({SuffixKind::kLongGapTail, 0}, false),
            (SuffixState{SuffixKind::kLongGap, 0}));
}

// --- classify_series ----------------------------------------------------

TEST(ClassifySeries, PaperExampleDelta3) {
  // Paper, Section V-A: Δ = 3, states rounds 1..10 = H,N,H,H,N,N,H,N,N,N;
  // then F₇..F₁₀ = HN^{≤2}H, HN^{≤2}HN¹, HN^{≤2}HN², HN^{≥3}.
  const std::vector<bool> series = {true,  false, true,  true, false,
                                    false, true,  false, false, false};
  const auto states = classify_series(series, 3);
  ASSERT_TRUE(states[6].has_value());
  EXPECT_EQ(*states[6], (SuffixState{SuffixKind::kShortGapHead, 0}));
  EXPECT_EQ(*states[7], (SuffixState{SuffixKind::kShortGapTail, 1}));
  EXPECT_EQ(*states[8], (SuffixState{SuffixKind::kShortGapTail, 2}));
  EXPECT_EQ(*states[9], (SuffixState{SuffixKind::kLongGap, 0}));
}

TEST(ClassifySeries, UndefinedBeforeEnoughHistory) {
  const std::vector<bool> series = {false, false, true, false, true};
  const auto states = classify_series(series, 3);
  EXPECT_FALSE(states[0].has_value());
  EXPECT_FALSE(states[1].has_value());
  EXPECT_FALSE(states[2].has_value());  // only one H so far, gap < Δ
  EXPECT_FALSE(states[3].has_value());
  ASSERT_TRUE(states[4].has_value());  // second H arrived
  EXPECT_EQ(states[4]->kind, SuffixKind::kShortGapHead);
}

TEST(ClassifySeries, LongGapReportableWithSingleH) {
  // One H then Δ N's: HN^{≥Δ} is a legitimate suffix with a single H.
  const std::vector<bool> series = {true, false, false, false, false};
  const auto states = classify_series(series, 3);
  EXPECT_FALSE(states[2].has_value());  // gap 2 < Δ
  ASSERT_TRUE(states[3].has_value());   // gap reached Δ = 3
  EXPECT_EQ(states[3]->kind, SuffixKind::kLongGap);
  EXPECT_EQ(states[4]->kind, SuffixKind::kLongGap);
}

TEST(ClassifySeries, AllNIsNeverDefined) {
  const std::vector<bool> series(10, false);
  for (const auto& s : classify_series(series, 2)) {
    EXPECT_FALSE(s.has_value());
  }
}

TEST(ClassifySeries, OnceDefinedFollowsTransitionFunction) {
  // Property: after the first defined index, every subsequent state equals
  // transition(previous, series value).
  const SuffixStateSpace space(4);
  // A deterministic but irregular pattern.
  std::vector<bool> series;
  for (int i = 0; i < 200; ++i) {
    series.push_back((i * i + i / 3) % 7 == 0);
  }
  const auto states = classify_series(series, 4);
  bool seen = false;
  for (std::size_t t = 1; t < states.size(); ++t) {
    if (states[t - 1].has_value()) {
      seen = true;
      ASSERT_TRUE(states[t].has_value());
      EXPECT_EQ(*states[t], space.transition(*states[t - 1], series[t]));
    }
  }
  EXPECT_TRUE(seen);
}

TEST(SuffixStateSpace, RejectsDeltaZero) {
  EXPECT_THROW(SuffixStateSpace(0), ContractViolation);
}

// The pipeline test: draw per-round honest mining, classify, and
// compare the visit frequencies with the Eq. (37) stationary law.
struct PipelineCase {
  std::uint64_t delta;
  double honest_trials;
  double p;
};

class FrequencyPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(FrequencyPipeline, EmpiricalMatchesClosedForm) {
  const auto [delta, trials, p] = GetParam();
  // H iff the round mined at least one honest block: Bernoulli(α) per
  // round.  Tally the visits of every classified round.
  const double alpha = 1.0 - std::pow(1.0 - p, trials);
  crng::Stream rng({321, delta}, 0, 0, crng::Purpose::kGeneric);
  std::vector<bool> series(400000);
  for (std::size_t t = 0; t < series.size(); ++t) {
    series[t] = rng.bernoulli(alpha);
  }
  const SuffixStateSpace space(delta);
  std::vector<std::uint64_t> visits(space.size(), 0);
  std::uint64_t classified = 0;
  for (const auto& state : classify_series(series, delta)) {
    if (!state.has_value()) continue;
    ++visits[space.index_of(*state)];
    ++classified;
  }
  ASSERT_GT(classified, 0u);

  const auto pi = stationary_closed_form_vector(space, alpha);
  double worst = 0.0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const double frequency =
        static_cast<double>(visits[i]) / static_cast<double>(classified);
    worst = std::max(worst, std::fabs(frequency - pi[i]));
  }
  // Dependent-sample tolerance: generous 5/sqrt(T) plus a floor.
  const double tolerance =
      5.0 / std::sqrt(static_cast<double>(classified)) + 1e-3;
  EXPECT_LT(worst, tolerance);
  EXPECT_GT(static_cast<double>(classified),
            0.9 * static_cast<double>(series.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FrequencyPipeline,
    ::testing::Values(PipelineCase{1, 100, 0.002},
                      PipelineCase{2, 150, 0.001},
                      PipelineCase{4, 150, 0.001},
                      PipelineCase{8, 200, 0.0005},
                      PipelineCase{3, 50, 0.01}));

}  // namespace
}  // namespace neatbound::chains
