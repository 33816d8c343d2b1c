// Property tests for the jump-column ancestry queries: on randomly grown
// trees of several shapes, and on a deep trunk whose forks straddle
// height 2^16, ancestor()/common_ancestor()/is_ancestor() must agree
// with the naive O(h) parent-walk implementations they replaced, and the
// documented genesis clamp of ancestor() must hold.
#include "protocol/block_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

/// Appends a block with a synthetic (but unique) hash under `parent`.
BlockIndex append(BlockStore& store, BlockIndex parent, HashValue hash) {
  Block b;
  b.hash = hash;
  b.parent = parent;
  b.parent_hash = store.hash_of(parent);
  b.round = store.round_of(parent) + 1;
  return store.add(std::move(b));
}

// --- naive reference implementations (plain parent walks) --------------

BlockIndex naive_ancestor(const BlockStore& store, BlockIndex index,
                          std::uint64_t steps) {
  while (steps > 0 && index != kGenesisIndex) {
    index = store.parent_of(index);
    --steps;
  }
  return index;
}

BlockIndex naive_common_ancestor(const BlockStore& store, BlockIndex a,
                                 BlockIndex b) {
  while (store.height_of(a) > store.height_of(b)) a = store.parent_of(a);
  while (store.height_of(b) > store.height_of(a)) b = store.parent_of(b);
  while (a != b) {
    a = store.parent_of(a);
    b = store.parent_of(b);
  }
  return a;
}

// --- tree growers -------------------------------------------------------

/// One chain of `blocks` blocks — the deep, fork-free extreme.
BlockStore grow_chain(std::size_t blocks) {
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (std::size_t i = 0; i < blocks; ++i) {
    tip = append(store, tip, 1000 + i);
  }
  return store;
}

/// Every block picks a uniformly random existing parent — short and bushy.
BlockStore grow_random_attach(std::size_t blocks, std::uint64_t seed) {
  BlockStore store;
  crng::Stream rng({seed, 0}, 0, 0, crng::Purpose::kGeneric);
  for (std::size_t i = 0; i < blocks; ++i) {
    const auto parent =
        static_cast<BlockIndex>(rng.uniform_below(store.size()));
    append(store, parent, 2000 + i);
  }
  return store;
}

/// Mostly extends the current tip, occasionally forking a few blocks
/// back — the shape real longest-chain executions produce.
BlockStore grow_chain_with_forks(std::size_t blocks, std::uint64_t seed) {
  BlockStore store;
  crng::Stream rng({seed, 0}, 0, 0, crng::Purpose::kGeneric);
  BlockIndex tip = kGenesisIndex;
  for (std::size_t i = 0; i < blocks; ++i) {
    BlockIndex parent = tip;
    if (rng.bernoulli(0.15)) {
      parent = naive_ancestor(store, tip, rng.uniform_below(6));
    }
    const BlockIndex child = append(store, parent, 3000 + i);
    if (store.height_of(child) > store.height_of(tip)) tip = child;
  }
  return store;
}

void check_against_naive(const BlockStore& store, std::uint64_t seed,
                         std::size_t pairs) {
  crng::Stream rng({seed, 0}, 0, 0, crng::Purpose::kGeneric);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto a = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const auto b = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const BlockIndex expected = naive_common_ancestor(store, a, b);
    ASSERT_EQ(store.common_ancestor(a, b), expected)
        << "pair " << i << ": a=" << a << " b=" << b;
    ASSERT_EQ(store.common_prefix_height(a, b), store.height_of(expected));
    // Random-step ancestor walks, including past-genesis overshoots.
    const std::uint64_t steps = rng.uniform_below(store.size() + 10);
    ASSERT_EQ(store.ancestor(a, steps), naive_ancestor(store, a, steps))
        << "pair " << i << ": a=" << a << " steps=" << steps;
    // is_ancestor agrees with walking b's chain down to a's height.
    const std::uint64_t ha = store.height_of(a);
    const std::uint64_t hb = store.height_of(b);
    const bool expect_anc =
        ha <= hb && naive_ancestor(store, b, hb - ha) == a;
    ASSERT_EQ(store.is_ancestor(a, b), expect_anc)
        << "pair " << i << ": a=" << a << " b=" << b;
  }
}

TEST(BlockStoreAncestry, MatchesNaiveOnDeepChain) {
  const BlockStore store = grow_chain(1500);
  check_against_naive(store, 11, 1200);
}

TEST(BlockStoreAncestry, MatchesNaiveOnBushyRandomAttach) {
  const BlockStore store = grow_random_attach(1200, 7);
  check_against_naive(store, 13, 1200);
}

TEST(BlockStoreAncestry, MatchesNaiveOnChainWithForks) {
  const BlockStore store = grow_chain_with_forks(1500, 3);
  check_against_naive(store, 17, 1200);
}

TEST(BlockStoreAncestry, AncestorAtHeightWalksToExactHeight) {
  const BlockStore store = grow_chain_with_forks(600, 5);
  crng::Stream rng({19, 0}, 0, 0, crng::Purpose::kGeneric);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<BlockIndex>(rng.uniform_below(store.size()));
    const std::uint64_t target = rng.uniform_below(store.height_of(a) + 1);
    const BlockIndex anc = store.ancestor_at_height(a, target);
    EXPECT_EQ(store.height_of(anc), target);
    EXPECT_TRUE(store.is_ancestor(anc, a));
  }
  EXPECT_THROW((void)store.ancestor_at_height(kGenesisIndex, 1),
               ContractViolation);
}

TEST(BlockStoreAncestry, MatchesNaiveOnDeepForks) {
  // A 70,000-block trunk (crossing 2^16) with branches of depth 1, 7, 8,
  // 1,000 and 20,000 forking at heights 65,535, 65,536 and the tip.
  constexpr std::uint64_t kTrunk = 70'000;
  BlockStore store;
  HashValue next_hash = 1;
  std::vector<BlockIndex> trunk{kGenesisIndex};  // trunk[h] has height h
  for (std::uint64_t h = 1; h <= kTrunk; ++h) {
    trunk.push_back(append(store, trunk.back(), next_hash++));
  }
  struct Branch {
    std::uint64_t fork_height;
    std::uint64_t depth;
    BlockIndex tip;
  };
  std::vector<Branch> branches;
  for (const std::uint64_t fork : {std::uint64_t{65'535},
                                   std::uint64_t{65'536}, kTrunk}) {
    for (const std::uint64_t depth : {1, 7, 8, 1'000, 20'000}) {
      BlockIndex tip = trunk[fork];
      for (std::uint64_t i = 0; i < depth; ++i) {
        tip = append(store, tip, next_hash++);
      }
      branches.push_back({fork, depth, tip});
    }
  }

  // Every pair of tips (branches and the trunk's), against the naive walk
  // and against the fork heights the tree was built with.
  std::vector<BlockIndex> tips{trunk.back()};
  for (const Branch& br : branches) tips.push_back(br.tip);
  for (std::size_t i = 0; i < tips.size(); ++i) {
    for (std::size_t j = 0; j < tips.size(); ++j) {
      ASSERT_EQ(store.common_ancestor(tips[i], tips[j]),
                naive_common_ancestor(store, tips[i], tips[j]))
          << "tips " << i << ", " << j;
    }
  }
  crng::Stream rng({23, 0}, 0, 0, crng::Purpose::kGeneric);
  for (const Branch& br : branches) {
    ASSERT_EQ(store.height_of(br.tip), br.fork_height + br.depth);
    // The branch's own blocks against trunk blocks above and below the
    // fork, and the walks that cross the fork point.
    for (std::uint64_t d : {std::uint64_t{0}, br.depth / 2, br.depth - 1}) {
      const BlockIndex on_branch = store.ancestor(br.tip, d);
      for (const std::uint64_t h :
           {br.fork_height - 1, br.fork_height,
            std::min(kTrunk, br.fork_height + 1), kTrunk,
            std::uint64_t{65'534}, rng.uniform_below(kTrunk + 1)}) {
        const BlockIndex expected =
            naive_common_ancestor(store, on_branch, trunk[h]);
        ASSERT_EQ(store.common_ancestor(on_branch, trunk[h]), expected);
        ASSERT_EQ(expected, trunk[std::min(h, br.fork_height)]);
        ASSERT_EQ(store.is_ancestor(trunk[h], on_branch),
                  h <= br.fork_height);
      }
    }
    // The last two cross back to heights 2^16 and 2^16 − 1.
    for (const std::uint64_t steps :
         {br.depth - 1, br.depth, br.depth + 1,
          br.depth + br.fork_height - 65'536,
          br.depth + br.fork_height - 65'535,
          rng.uniform_below(kTrunk + 2 * br.depth)}) {
      ASSERT_EQ(store.ancestor(br.tip, steps),
                naive_ancestor(store, br.tip, steps))
          << "fork " << br.fork_height << " depth " << br.depth
          << " steps " << steps;
    }
  }
  // Trunk walks from the tip to every height near 2^16 and to random ones.
  for (std::uint64_t h = 65'530; h <= 65'540; ++h) {
    ASSERT_EQ(store.ancestor_at_height(trunk.back(), h), trunk[h]);
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t from = 1 + rng.uniform_below(kTrunk);
    const std::uint64_t to = rng.uniform_below(from + 1);
    ASSERT_EQ(store.ancestor_at_height(trunk[from], to), trunk[to]);
  }
}

// --- the documented genesis clamp (regression for the header contract) --

TEST(BlockStoreAncestry, AncestorClampsAtGenesis) {
  BlockStore store;
  // On a fresh store: every walk from genesis stays at genesis.
  EXPECT_EQ(store.ancestor(kGenesisIndex, 0), kGenesisIndex);
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1), kGenesisIndex);
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1u << 20), kGenesisIndex);

  BlockIndex tip = kGenesisIndex;
  for (HashValue h = 1; h <= 40; ++h) tip = append(store, tip, h);
  // Walking exactly height steps lands on genesis…
  EXPECT_EQ(store.ancestor(tip, 40), kGenesisIndex);
  // …and any longer walk clamps there instead of underflowing.
  EXPECT_EQ(store.ancestor(tip, 41), kGenesisIndex);
  EXPECT_EQ(store.ancestor(tip, ~std::uint64_t{0}), kGenesisIndex);
  // Genesis again, now on a non-trivial store.
  EXPECT_EQ(store.ancestor(kGenesisIndex, 1000), kGenesisIndex);
}

}  // namespace
}  // namespace neatbound::protocol
