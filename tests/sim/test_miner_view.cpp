#include "sim/miner_view.hpp"

#include <gtest/gtest.h>

namespace neatbound::sim {
namespace {

using protocol::Block;
using protocol::BlockIndex;
using protocol::BlockStore;
using protocol::kGenesisIndex;

BlockIndex append(BlockStore& store, BlockIndex parent,
                  protocol::HashValue hash) {
  Block b;
  b.hash = hash;
  b.parent = parent;
  b.parent_hash = store.block(parent).hash;
  b.round = store.block(parent).round + 1;
  return store.add(std::move(b));
}

TEST(MinerView, StartsAtGenesis) {
  const MinerView view;
  EXPECT_EQ(view.tip(), kGenesisIndex);
  EXPECT_TRUE(view.knows(kGenesisIndex));
}

TEST(MinerView, AdoptsLongerChain) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const AdoptionEvent e = view.deliver(a, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(e.reorg_depth, 0u);  // pure extension
  EXPECT_EQ(view.tip(), a);
}

TEST(MinerView, FirstReceivedTieBreak) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, kGenesisIndex, 2);  // same height
  view.deliver(a, store);
  const AdoptionEvent e = view.deliver(b, store);
  EXPECT_FALSE(e.adopted);
  EXPECT_EQ(view.tip(), a);  // keeps first received
  EXPECT_TRUE(view.knows(b));
}

TEST(MinerView, ReorgDepthMeasuresAbandonedBlocks) {
  BlockStore store;
  MinerView view;
  // Own chain: g → a1 → a2.
  const BlockIndex a1 = append(store, kGenesisIndex, 1);
  const BlockIndex a2 = append(store, a1, 2);
  view.deliver(a1, store);
  view.deliver(a2, store);
  // Competing chain g → b1 → b2 → b3 (longer).
  const BlockIndex b1 = append(store, kGenesisIndex, 11);
  const BlockIndex b2 = append(store, b1, 12);
  const BlockIndex b3 = append(store, b2, 13);
  view.deliver(b1, store);
  view.deliver(b2, store);
  const AdoptionEvent e = view.deliver(b3, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(e.reorg_depth, 2u);  // abandoned a1, a2
  EXPECT_EQ(view.tip(), b3);
}

TEST(MinerView, OrphanBufferedUntilParentArrives) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, a, 2);
  // Child delivered first: must not be adopted yet.
  AdoptionEvent e = view.deliver(b, store);
  EXPECT_FALSE(e.adopted);
  EXPECT_FALSE(view.knows(b));
  EXPECT_EQ(view.tip(), kGenesisIndex);
  // Parent arrives: both activate, tip jumps to the grandchild.
  e = view.deliver(a, store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(view.tip(), b);
  EXPECT_TRUE(view.knows(a));
  EXPECT_TRUE(view.knows(b));
}

TEST(MinerView, DeepOrphanChainActivatesInOneShot) {
  BlockStore store;
  MinerView view;
  std::vector<BlockIndex> chain;
  BlockIndex parent = kGenesisIndex;
  for (protocol::HashValue h = 1; h <= 6; ++h) {
    parent = append(store, parent, h);
    chain.push_back(parent);
  }
  // Deliver in reverse order: everything buffers until the first block.
  for (std::size_t i = chain.size(); i-- > 1;) {
    view.deliver(chain[i], store);
    EXPECT_EQ(view.tip(), kGenesisIndex);
  }
  view.deliver(chain[0], store);
  EXPECT_EQ(view.tip(), chain.back());
}

TEST(MinerView, DuplicateDeliveryIgnored) {
  BlockStore store;
  MinerView view;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  EXPECT_TRUE(view.deliver(a, store).adopted);
  const AdoptionEvent again = view.deliver(a, store);
  EXPECT_FALSE(again.adopted);
  EXPECT_EQ(view.tip(), a);
}

// Duplicate delivery of a *still-buffered* orphan passes the knows()
// check, so buffer_orphan must not re-thread it: doing so would sever
// the sibling linked behind it in the parent's waiting list.  The
// adversary can trigger this by re-sending a withheld child while its
// parent is still unknown.
TEST(MinerView, DuplicateBufferedOrphanKeepsWaitingSibling) {
  BlockStore store;
  MinerView view;
  const BlockIndex p = append(store, kGenesisIndex, 1);
  const BlockIndex s = append(store, p, 2);
  const BlockIndex b = append(store, p, 3);
  view.deliver(s, store);  // buffers: p -> [s]
  view.deliver(b, store);  // buffers: p -> [b, s]
  view.deliver(b, store);  // duplicate of list head: must be a no-op
  view.deliver(p, store);  // parent arrives: both children activate
  EXPECT_TRUE(view.knows(p));
  EXPECT_TRUE(view.knows(b));
  EXPECT_TRUE(view.knows(s));
}

TEST(MinerView, DuplicateBufferedOrphanAtListTailIsNoOp) {
  BlockStore store;
  MinerView view;
  const BlockIndex p = append(store, kGenesisIndex, 1);
  const BlockIndex s = append(store, p, 2);
  const BlockIndex b = append(store, p, 3);
  view.deliver(s, store);  // buffers: p -> [s]
  view.deliver(b, store);  // buffers: p -> [b, s]
  view.deliver(s, store);  // duplicate of list tail: must not cycle/drop
  view.deliver(p, store);
  EXPECT_TRUE(view.knows(b));
  EXPECT_TRUE(view.knows(s));
  // Orphans buffered again after activation behave normally.
  const BlockIndex c = append(store, b, 4);
  const BlockIndex d = append(store, c, 5);
  view.deliver(d, store);
  EXPECT_FALSE(view.knows(d));
  view.deliver(c, store);
  EXPECT_TRUE(view.knows(c));
  EXPECT_TRUE(view.knows(d));
}

// A burst of out-of-order deliveries parks a long chain in the orphan
// buffer; its root then drains the whole buffer in one activation.  The
// drained view must be indistinguishable from one that saw the chain in
// order — same tip, same known set, empty orphan buffer (same_state
// requires that) — and keep buffering normally afterwards.
TEST(MinerView, BurstOfOrphansDrainsCompletely) {
  BlockStore store;
  std::vector<BlockIndex> chain;
  BlockIndex parent = kGenesisIndex;
  for (protocol::HashValue h = 1; h <= 500; ++h) {
    parent = append(store, parent, h);
    chain.push_back(parent);
  }
  MinerView burst;
  for (std::size_t i = chain.size(); i-- > 1;) {
    const AdoptionEvent e = burst.deliver(chain[i], store);
    EXPECT_EQ(e.orphans_buffered, 1u);
    EXPECT_FALSE(burst.accepts(chain[i], store));  // already waiting
  }
  const AdoptionEvent e = burst.deliver(chain[0], store);
  EXPECT_TRUE(e.adopted);
  EXPECT_EQ(e.orphans_activated, chain.size() - 1);
  EXPECT_EQ(burst.tip(), chain.back());

  MinerView ordered;
  for (const BlockIndex b : chain) ordered.deliver(b, store);
  EXPECT_TRUE(burst.same_state(ordered));
  EXPECT_TRUE(ordered.same_state(burst));

  const BlockIndex c = append(store, chain.back(), 1000);
  const BlockIndex d = append(store, c, 1001);
  burst.deliver(d, store);
  EXPECT_FALSE(burst.same_state(ordered));  // an orphan is waiting
  burst.deliver(c, store);
  ordered.deliver(c, store);
  ordered.deliver(d, store);
  EXPECT_TRUE(burst.same_state(ordered));
}

TEST(MinerView, SameStateNeedsEqualKnownSets) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, kGenesisIndex, 2);  // same height
  MinerView first;
  MinerView second;
  EXPECT_TRUE(first.same_state(second));
  first.deliver(a, store);
  second.deliver(a, store);
  second.deliver(b, store);  // tie: tip stays a, but b is known
  EXPECT_EQ(first.tip(), second.tip());
  EXPECT_FALSE(first.same_state(second));
  first.deliver(b, store);
  EXPECT_TRUE(first.same_state(second));
  EXPECT_TRUE(first.deliver(b, store).duplicate);
}

TEST(MinerView, ShorterChainNeverAdopted) {
  BlockStore store;
  MinerView view;
  const BlockIndex a1 = append(store, kGenesisIndex, 1);
  const BlockIndex a2 = append(store, a1, 2);
  view.deliver(a1, store);
  view.deliver(a2, store);
  const BlockIndex b1 = append(store, kGenesisIndex, 11);
  EXPECT_FALSE(view.deliver(b1, store).adopted);
  EXPECT_EQ(view.tip(), a2);
}

}  // namespace
}  // namespace neatbound::sim
