// Paper appendices as executable scenarios.
//
// Appendix A: under GHOST, nodes with partial views can each be unable to
// determine the main chain — the information needed (subtree weights) is
// spread across nodes.
//
// Appendix B: on a key-block fork, a leader cannot buy the fork race with
// fees, because the competing branch simply copies the same transactions.
#include <gtest/gtest.h>

#include "../support/harness.hpp"
#include "chain/block_tree.hpp"
#include "ng/ng_node.hpp"

namespace bng {
namespace {

chain::BlockPtr tree_block(chain::BlockType type, const Hash256& prev, Seconds ts,
                           std::uint64_t salt) {
  chain::BlockHeader h;
  h.type = type;
  h.prev = prev;
  h.timestamp = ts;
  h.nonce = salt;
  return std::make_shared<chain::Block>(h, std::vector<chain::TxPtr>{}, 0);
}

TEST(AppendixA, PartialGhostViewsDisagreeOnMainChain) {
  // Figure 9's structure: a chain 0-1-2-3-4 and a branch 2'-{3',3'',3'''}.
  // The full tree's heaviest subtree at the fork is the 2' side (4 blocks vs
  // 3), but each node sees only one of 3',3'',3''' and concludes the 0-1-2-4
  // side (3 blocks vs 2 visible) is the main chain. No single partial view
  // finds the true GHOST chain.
  auto genesis = chain::make_genesis(1, kCoin);
  auto b1 = tree_block(chain::BlockType::kPow, genesis->id(), 1, 1);
  auto b2 = tree_block(chain::BlockType::kPow, b1->id(), 2, 2);
  auto b3 = tree_block(chain::BlockType::kPow, b2->id(), 3, 3);
  auto b4 = tree_block(chain::BlockType::kPow, b3->id(), 4, 4);
  auto b2p = tree_block(chain::BlockType::kPow, b1->id(), 2.5, 5);  // 2'
  auto b3p = tree_block(chain::BlockType::kPow, b2p->id(), 3.5, 6);
  auto b3pp = tree_block(chain::BlockType::kPow, b2p->id(), 3.6, 7);
  auto b3ppp = tree_block(chain::BlockType::kPow, b2p->id(), 3.7, 8);

  // The omniscient view: 2'-subtree weighs 4 (2',3',3'',3''') vs 3 (2,3,4).
  Rng rng(1);
  chain::BlockTree full(genesis, chain::TieBreak::kFirstSeen,
                        chain::BlockTree::ForkChoice::kHeaviestSubtree, &rng);
  for (const auto& b : {b1, b2, b3, b4, b2p, b3p, b3pp, b3ppp})
    full.insert(b, b->header().timestamp, 1.0);
  auto full_tip = full.best().block->id();
  EXPECT_TRUE(full.is_ancestor(*full.find(b2p->id()), full.best_tip()));

  // Three partial views, each missing two of the 2'-children.
  for (const auto& visible : {b3p, b3pp, b3ppp}) {
    chain::BlockTree partial(genesis, chain::TieBreak::kFirstSeen,
                             chain::BlockTree::ForkChoice::kHeaviestSubtree, &rng);
    for (const auto& b : {b1, b2, b3, b4, b2p}) partial.insert(b, 1, 1.0);
    partial.insert(visible, 1, 1.0);
    // Its heaviest-subtree choice lands on the '2' side: 3 > 2 visible.
    EXPECT_TRUE(partial.is_ancestor(*partial.find(b2->id()), partial.best_tip()));
    EXPECT_NE(partial.best().block->id(), full_tip);
  }
}

TEST(AppendixB, CompetingKeyBlockBranchesCarryTheSameTransactions) {
  // Two leaders fork at the same microblock; both branches serialize from
  // the same pending set, so "even if an attacker is motivated to place
  // significant fees ... its competitor will copy those same transactions".
  bng::testing::MiniNet<ng::NgNode> net(2, [] {
    auto p = chain::Params::bitcoin_ng();
    p.microblock_interval = 1.0;
    p.max_microblock_size = 4000;
    return p;
  }(), /*latency=*/5.0);  // high latency: the fork persists long enough

  // Both nodes win a key block at the same instant on the same (genesis)
  // parent, then each produces microblocks on its own branch.
  net.node(0).on_mining_win(1.0);
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);

  auto payload_ids = [](const chain::BlockTree& t) {
    std::vector<Hash256> ids;
    for (const BlockId id : t.path_from_genesis(t.best_tip()))
      for (const auto& tx : t.facts(id).block->txs())
        if (!tx->is_coinbase() && !tx->is_poison()) ids.push_back(tx->id());
    return ids;
  };
  auto ids0 = payload_ids(net.node(0).tree());
  auto ids1 = payload_ids(net.node(1).tree());
  ASSERT_FALSE(ids0.empty());
  ASSERT_FALSE(ids1.empty());
  // The shorter branch's serialization is a prefix of the longer one's:
  // identical transactions, identical order — no fee-based advantage.
  const auto n = std::min(ids0.size(), ids1.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ids0[i], ids1[i]) << "position " << i;
}

}  // namespace
}  // namespace bng
