#include "chain/block_tree.hpp"

#include <gtest/gtest.h>

namespace bng::chain {
namespace {

/// Minimal block factory for tree tests; txs are irrelevant here.
BlockPtr make_block(BlockType type, const Hash256& prev, Seconds ts, std::uint32_t miner,
                    std::uint64_t salt = 0) {
  BlockHeader h;
  h.type = type;
  h.prev = prev;
  h.timestamp = ts;
  h.nonce = salt;
  if (type == BlockType::kKey)
    h.leader_key = crypto::PrivateKey::from_seed(miner).public_key();
  return std::make_shared<Block>(h, std::vector<TxPtr>{}, miner);
}

class BlockTreeTest : public ::testing::Test {
 protected:
  BlockTreeTest()
      : genesis_(make_genesis(1, kCoin)),
        rng_(1),
        tree_(genesis_, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain, &rng_) {}

  BlockPtr genesis_;
  Rng rng_;
  BlockTree tree_;
};

TEST_F(BlockTreeTest, GenesisIsInitialTip) {
  EXPECT_EQ(tree_.size(), 1u);
  EXPECT_EQ(tree_.best_tip(), tree_.genesis());
  EXPECT_TRUE(tree_.contains(genesis_->id()));
  EXPECT_EQ(tree_.facts(tree_.genesis()).block, genesis_);
}

TEST_F(BlockTreeTest, InsertExtendsTip) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  auto idx = tree_.insert(b1, 1.0, 1.0);
  EXPECT_EQ(tree_.best_tip(), idx);
  EXPECT_EQ(tree_.facts(idx).height, 1u);
  EXPECT_EQ(tree_.facts(idx).chain_work, 1.0);
  EXPECT_EQ(tree_.facts(idx).parent, tree_.genesis());
  EXPECT_EQ(tree_.received(idx), 1.0);
}

TEST_F(BlockTreeTest, DuplicateInsertThrows) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  tree_.insert(b1, 1.0, 1.0);
  EXPECT_THROW(tree_.insert(b1, 2.0, 1.0), std::invalid_argument);
}

TEST_F(BlockTreeTest, UnknownParentThrows) {
  Hash256 missing;
  missing.bytes[0] = 0xee;
  auto orphan = make_block(BlockType::kPow, missing, 1.0, 0);
  EXPECT_THROW(tree_.insert(orphan, 1.0, 1.0), std::invalid_argument);
}

TEST_F(BlockTreeTest, HeavierBranchWinsRegardlessOfArrival) {
  auto a1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  auto a1_idx = tree_.insert(a1, 1.0, 1.0);
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.1, 1);
  tree_.insert(b1, 1.1, 1.0);
  EXPECT_EQ(tree_.best_tip(), a1_idx);  // first-seen keeps a1 on the tie
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 1);
  auto b2_idx = tree_.insert(b2, 2.0, 1.0);
  EXPECT_EQ(tree_.best_tip(), b2_idx);  // now strictly heavier
}

TEST_F(BlockTreeTest, FirstSeenKeepsCurrentOnTie) {
  auto a1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  auto a1_idx = tree_.insert(a1, 1.0, 1.0);
  for (int i = 0; i < 10; ++i) {
    auto rival = make_block(BlockType::kPow, genesis_->id(), 1.5, 2, 100 + i);
    tree_.insert(rival, 1.5, 1.0);
    EXPECT_EQ(tree_.best_tip(), a1_idx);
  }
}

TEST(BlockTreeRandomTie, EventuallySwitches) {
  // Random tie-breaking (paper §3): with enough equal-weight rivals the tip
  // must switch at least once.
  auto genesis = make_genesis(1, kCoin);
  Rng rng(7);
  BlockTree tree(genesis, TieBreak::kRandom, BlockTree::ForkChoice::kHeaviestChain, &rng);
  auto a1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  auto a1_idx = tree.insert(a1, 1.0, 1.0);
  bool switched = false;
  for (int i = 0; i < 20 && !switched; ++i) {
    auto rival = make_block(BlockType::kPow, genesis->id(), 1.5, 2, 200 + i);
    tree.insert(rival, 1.5, 1.0);
    switched = tree.best_tip() != a1_idx;
  }
  EXPECT_TRUE(switched);
}

TEST(BlockTreeRandomTie, RequiresRng) {
  auto genesis = make_genesis(1, kCoin);
  EXPECT_THROW(
      BlockTree(genesis, TieBreak::kRandom, BlockTree::ForkChoice::kHeaviestChain, nullptr),
      std::invalid_argument);
}

TEST_F(BlockTreeTest, MicroblocksExtendWithoutWeight) {
  auto k1 = make_block(BlockType::kKey, genesis_->id(), 1.0, 0);
  tree_.insert(k1, 1.0, 1.0);
  auto m1 = make_block(BlockType::kMicro, k1->id(), 2.0, 0);
  auto m1_idx = tree_.insert(m1, 2.0, 0.0);
  EXPECT_EQ(tree_.best_tip(), m1_idx);  // descendant of tip extends it
  EXPECT_EQ(tree_.facts(m1_idx).chain_work, 1.0);
  EXPECT_EQ(tree_.facts(m1_idx).pow_height, 1u);
  EXPECT_EQ(tree_.facts(m1_idx).height, 2u);
}

TEST_F(BlockTreeTest, KeyBlockPrunesMicroblockFork) {
  // Fig 2: the new key block outweighs any number of pruned microblocks.
  auto k1 = make_block(BlockType::kKey, genesis_->id(), 1.0, 0);
  tree_.insert(k1, 1.0, 1.0);
  auto m1 = make_block(BlockType::kMicro, k1->id(), 2.0, 0);
  tree_.insert(m1, 2.0, 0.0);
  auto m2 = make_block(BlockType::kMicro, m1->id(), 3.0, 0);
  auto m2_idx = tree_.insert(m2, 3.0, 0.0);
  EXPECT_EQ(tree_.best_tip(), m2_idx);
  // New key block forks from k1 (it had not seen m1, m2).
  auto k2 = make_block(BlockType::kKey, k1->id(), 3.5, 1);
  auto k2_idx = tree_.insert(k2, 3.5, 1.0);
  EXPECT_EQ(tree_.best_tip(), k2_idx);
}

TEST_F(BlockTreeTest, EpochKeyBlockTracking) {
  auto k1 = make_block(BlockType::kKey, genesis_->id(), 1.0, 0);
  auto k1_idx = tree_.insert(k1, 1.0, 1.0);
  auto m1 = make_block(BlockType::kMicro, k1->id(), 2.0, 0);
  auto m1_idx = tree_.insert(m1, 2.0, 0.0);
  auto k2 = make_block(BlockType::kKey, m1->id(), 3.0, 1);
  auto k2_idx = tree_.insert(k2, 3.0, 1.0);
  auto m2 = make_block(BlockType::kMicro, k2->id(), 4.0, 1);
  auto m2_idx = tree_.insert(m2, 4.0, 0.0);
  EXPECT_EQ(tree_.facts(m1_idx).epoch_key_block, k1_idx);
  EXPECT_EQ(tree_.facts(k2_idx).epoch_key_block, k2_idx);
  EXPECT_EQ(tree_.facts(m2_idx).epoch_key_block, k2_idx);
  EXPECT_EQ(tree_.facts(k1_idx).epoch_key_block, k1_idx);
  EXPECT_EQ(tree_.facts(tree_.genesis()).epoch_key_block, tree_.genesis());
}

TEST_F(BlockTreeTest, AncestorQueries) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  auto i1 = tree_.insert(b1, 1.0, 1.0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 0);
  auto i2 = tree_.insert(b2, 2.0, 1.0);
  auto r1 = make_block(BlockType::kPow, genesis_->id(), 1.5, 1);
  auto ir = tree_.insert(r1, 1.5, 1.0);

  const BlockId g = tree_.genesis();
  EXPECT_TRUE(tree_.is_ancestor(g, i2));
  EXPECT_TRUE(tree_.is_ancestor(i1, i2));
  EXPECT_TRUE(tree_.is_ancestor(i2, i2));
  EXPECT_FALSE(tree_.is_ancestor(ir, i2));
  EXPECT_FALSE(tree_.is_ancestor(i2, i1));
}

TEST_F(BlockTreeTest, PathFromGenesis) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  auto i1 = tree_.insert(b1, 1.0, 1.0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 0);
  auto i2 = tree_.insert(b2, 2.0, 1.0);
  auto path = tree_.path_from_genesis(i2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], tree_.genesis());
  EXPECT_EQ(path[1], i1);
  EXPECT_EQ(path[2], i2);
}

TEST_F(BlockTreeTest, AncestorAtOrBeforeTime) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 10.0, 0);
  auto i1 = tree_.insert(b1, 10.0, 1.0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 20.0, 0);
  auto i2 = tree_.insert(b2, 20.0, 1.0);
  EXPECT_EQ(tree_.ancestor_at_or_before(i2, 25.0), i2);
  EXPECT_EQ(tree_.ancestor_at_or_before(i2, 15.0), i1);
  EXPECT_EQ(tree_.ancestor_at_or_before(i2, 5.0), tree_.genesis());
}

TEST_F(BlockTreeTest, ChainTxAndFeeAccounting) {
  auto tx1 = make_transfer(Outpoint{genesis_->txs()[0]->id(), 0}, kCoin - 10,
                           address_from_tag(1), 10);
  auto tx2 = make_transfer(Outpoint{genesis_->txs()[0]->id(), 1}, kCoin - 20,
                           address_from_tag(2), 20);
  BlockHeader h;
  h.type = BlockType::kPow;
  h.prev = genesis_->id();
  h.timestamp = 1.0;
  std::vector<TxPtr> txs{tx1, tx2};
  h.merkle_root = compute_merkle_root(txs);
  auto idx = tree_.insert(std::make_shared<Block>(h, txs, 0), 1.0, 1.0);
  EXPECT_EQ(tree_.facts(idx).chain_tx_count, 2u);
  EXPECT_EQ(tree_.facts(idx).chain_fee_sum, 30);
}

TEST_F(BlockTreeTest, TipHistoryRecordsSwitches) {
  auto b1 = make_block(BlockType::kPow, genesis_->id(), 1.0, 0);
  tree_.insert(b1, 1.0, 1.0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 0);
  tree_.insert(b2, 2.0, 1.0);
  const auto& hist = tree_.tip_history();
  ASSERT_EQ(hist.size(), 3u);  // genesis + two extensions
  EXPECT_EQ(hist[0].tip, tree_.genesis());
  EXPECT_EQ(hist[1].at, 1.0);
  EXPECT_EQ(hist[2].at, 2.0);
}

TEST(BlockTreeGhost, HeaviestSubtreeBeatsLongestChain) {
  // GHOST picks the subtree with more total work even if its chain is
  // shorter (paper §9 / Appendix A).
  auto genesis = make_genesis(1, kCoin);
  Rng rng(3);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestSubtree,
                 &rng);
  // Branch A: a1 - a2 (chain work 2).
  auto a1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  tree.insert(a1, 1.0, 1.0);
  auto a2 = make_block(BlockType::kPow, a1->id(), 2.0, 0);
  auto a2_idx = tree.insert(a2, 2.0, 1.0);
  EXPECT_EQ(tree.best_tip(), a2_idx);
  // Branch B: b1 with three children (subtree work 4 > 2) but depth 2.
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.5, 1);
  auto b1_idx = tree.insert(b1, 1.5, 1.0);
  auto c1 = make_block(BlockType::kPow, b1->id(), 2.5, 2, 1);
  tree.insert(c1, 2.5, 1.0);
  auto c2 = make_block(BlockType::kPow, b1->id(), 2.6, 3, 2);
  tree.insert(c2, 2.6, 1.0);
  auto c3 = make_block(BlockType::kPow, b1->id(), 2.7, 4, 3);
  tree.insert(c3, 2.7, 1.0);
  // Heaviest-subtree tip lives under b1 even though branch A's chain has the
  // same length as b1->c1.
  EXPECT_TRUE(tree.is_ancestor(b1_idx, tree.best_tip()));
}

TEST(BlockTreeGhost, SubtreeWorkAccumulates) {
  auto genesis = make_genesis(1, kCoin);
  Rng rng(4);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestSubtree,
                 &rng);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  auto i1 = tree.insert(b1, 1.0, 1.0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 0);
  tree.insert(b2, 2.0, 1.0);
  EXPECT_EQ(tree.subtree_work(i1), 2.0);
  EXPECT_EQ(tree.subtree_work(tree.genesis()), 2.0);
}

// --- One store per deployment ----------------------------------------------

TEST(BlockStoreSharing, LaterTreesReuseTheFactsAndKeepTheirOwnArrivals) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store);
  BlockTree second(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                   nullptr, store, 1);
  EXPECT_EQ(first.genesis(), second.genesis());
  auto k1 = make_block(BlockType::kKey, genesis->id(), 1.0, 0);
  const BlockId id = first.insert(k1, 1.0, 1.0);
  const BlockFacts* computed = &first.facts(id);
  EXPECT_TRUE(store->known(id));
  EXPECT_FALSE(second.contains_id(id));

  second.insert(k1, id, 3.0, 1.0);
  EXPECT_EQ(&second.facts(id), computed);  // one record, not a copy per tree
  EXPECT_EQ(second.facts(id).height, 1u);
  EXPECT_EQ(second.facts(id).epoch_key_block, id);
  EXPECT_EQ(first.received(id), 1.0);
  EXPECT_EQ(second.received(id), 3.0);
  EXPECT_EQ(second.tip_history().back().at, 3.0);
}

TEST(BlockStoreSharing, DisagreeingWorkForAKnownBlockThrows) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store);
  BlockTree second(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                   nullptr, store, 1);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  const BlockId id = first.insert(b1, 1.0, 1.0);
  EXPECT_THROW(second.insert(b1, id, 2.0, 2.5), std::logic_error);
  // The rejected insert left the second view untouched.
  EXPECT_FALSE(second.contains_id(id));
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(second.best_tip(), second.genesis());
  EXPECT_EQ(first.facts(id).chain_work, 1.0);
  // The agreeing weight is accepted.
  second.insert(b1, id, 2.0, 1.0);
  EXPECT_EQ(second.best_tip(), id);
}

TEST(BlockStoreSharing, ABlockUnderAnotherIdThrows) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store);
  BlockTree second(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                   nullptr, store, 1);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  auto b2 = make_block(BlockType::kPow, genesis->id(), 1.0, 1, 7);
  const BlockId id1 = first.insert(b1, 1.0, 1.0);
  EXPECT_THROW(second.insert(b2, id1, 1.0, 1.0), std::logic_error);
}

TEST(BlockStoreSharing, OneGenesisPerStore) {
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(make_genesis(1, kCoin), TieBreak::kFirstSeen,
                  BlockTree::ForkChoice::kHeaviestChain, nullptr, store);
  EXPECT_THROW(BlockTree(make_genesis(2, kCoin), TieBreak::kFirstSeen,
                         BlockTree::ForkChoice::kHeaviestChain, nullptr, store, 1),
               std::invalid_argument);
}

TEST(BlockStoreViews, EachViewSeesOnlyItsOwnAcceptance) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(5);
  BlockTree three(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store, 3);
  BlockTree four(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr, store, 4);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  const BlockId id = three.insert(b1, 1.5, 1.0);
  EXPECT_TRUE(three.contains_id(id));
  EXPECT_FALSE(four.contains_id(id));
  EXPECT_EQ(store->ordinal(id, 3), 1u);
  EXPECT_EQ(store->ordinal(id, 4), BlockStore::kNotAccepted);
  EXPECT_EQ(store->ordinal(id, 0), BlockStore::kNotAccepted);  // an unclaimed view
  EXPECT_EQ(four.size(), 1u);
  EXPECT_EQ(four.best_tip(), four.genesis());

  four.insert(b1, id, 2.5, 1.0);
  EXPECT_EQ(three.received(id), 1.5);
  EXPECT_EQ(four.received(id), 2.5);
  EXPECT_EQ(three.tip_history().back().at, 1.5);
  EXPECT_EQ(four.tip_history().back().at, 2.5);
  EXPECT_EQ(three.accepted(), (std::vector<BlockId>{three.genesis(), id}));
  EXPECT_EQ(four.accepted(), (std::vector<BlockId>{four.genesis(), id}));
  // One log in event order: each view's genesis, then its switch to b1.
  ASSERT_EQ(store->tip_log().size(), 4u);
  EXPECT_EQ(store->tip_log()[2].view, 3u);
  EXPECT_EQ(store->tip_log()[3].view, 4u);
}

TEST(BlockStoreViews, AViewIsClaimedOnceAndMustExist) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store, 1);
  EXPECT_THROW(BlockTree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                         nullptr, store, 1),
               std::invalid_argument);
  EXPECT_THROW(BlockTree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                         nullptr, store, 2),
               std::invalid_argument);
  // A standalone tree owns a one-view store.
  EXPECT_THROW(BlockTree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                         nullptr, nullptr, 1),
               std::invalid_argument);
  EXPECT_THROW(BlockStore(0), std::invalid_argument);
  BlockTree zero(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr, store, 0);
  EXPECT_EQ(store->ordinal(zero.genesis(), 0), 0u);
}

TEST(BlockStoreViews, OnlyABodyPutOnTheWireOrAdmittedCanBeRead) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(1);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr, store);
  EXPECT_EQ(store->body(tree.genesis()), genesis);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  auto b2 = make_block(BlockType::kPow, genesis->id(), 1.0, 1, 7);
  const BlockId id = store->intern(b1->id());
  EXPECT_THROW((void)store->body(id), std::logic_error);       // interned only
  EXPECT_THROW((void)store->body(id + 1), std::logic_error);   // never seen
  store->hold(id, b1);
  EXPECT_EQ(store->body(id), b1);
  EXPECT_FALSE(store->known(id));  // held is not admitted
  EXPECT_THROW(store->hold(id, b2), std::logic_error);
  tree.insert(b1, id, 1.0, 1.0);
  EXPECT_TRUE(store->known(id));
  EXPECT_EQ(store->body(id), b1);
}

TEST(BlockStoreSharing, UnknownParentIsRejectedBeforeAdmission) {
  auto genesis = make_genesis(1, kCoin);
  auto store = std::make_shared<BlockStore>(2);
  BlockTree first(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                  nullptr, store);
  BlockTree second(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                   nullptr, store, 1);
  auto b1 = make_block(BlockType::kPow, genesis->id(), 1.0, 0);
  auto b2 = make_block(BlockType::kPow, b1->id(), 2.0, 0);
  first.insert(b1, 1.0, 1.0);
  const BlockId id2 = first.insert(b2, 2.0, 1.0);
  // The store knows b2 and its parent, but this view holds neither.
  EXPECT_THROW(second.insert(b2, id2, 2.0, 1.0), std::invalid_argument);
  EXPECT_FALSE(second.contains_id(id2));
}

}  // namespace
}  // namespace bng::chain
