// WithholdingStrategy state machine, exercised directly against a BlockTree
// (no network): the SM1 transitions, and the NG wrinkle where the
// adversary's own zero-weight blocks ride the private chain.
#include "protocol/withholding.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "chain/block.hpp"

namespace bng::protocol {
namespace {

struct Fixture {
  Fixture()
      : tree(chain::make_genesis(1, kCoin), chain::TieBreak::kFirstSeen,
             chain::BlockTree::ForkChoice::kHeaviestChain, nullptr),
        strategy(tree, [this](BlockId id) { published.push_back(id); }) {}

  /// Append a block to `parent`; returns its id.
  BlockId add_block(BlockId parent, chain::BlockType type, double work, std::uint64_t salt) {
    chain::BlockHeader h;
    h.type = type;
    h.prev = tree.facts(parent).block->id();
    h.nonce = salt;
    auto block = std::make_shared<chain::Block>(h, std::vector<chain::TxPtr>{},
                                                /*miner=*/0, work);
    return tree.insert(block, 0.0, work);
  }

  /// The adversary mines on its current best tip (the begin/end bracket).
  BlockId own_win(std::uint64_t salt) {
    strategy.begin_own_win();
    const BlockId id = add_block(tree.best_tip(), chain::BlockType::kPow, 1.0, salt);
    strategy.on_accept(id, /*own=*/true);
    strategy.end_own_win();
    return id;
  }

  /// A public block arrives and is accepted.
  BlockId public_block(BlockId parent, std::uint64_t salt) {
    const BlockId id = add_block(parent, chain::BlockType::kPow, 1.0, salt);
    strategy.on_accept(id, /*own=*/false);
    return id;
  }

  chain::BlockTree tree;
  std::vector<BlockId> published;
  WithholdingStrategy strategy;
};

TEST(WithholdingStrategy, WithholdsOwnWins) {
  Fixture f;
  const BlockId id = f.own_win(1);
  EXPECT_EQ(f.strategy.withheld(), 1u);
  EXPECT_TRUE(f.published.empty());
  EXPECT_TRUE(f.strategy.suppress_relay(id, /*own=*/true));
}

TEST(WithholdingStrategy, RevealsAllWhenCaughtUp) {
  Fixture f;
  f.own_win(1);
  f.public_block(f.tree.genesis(), 100);  // honest block at equal work -> race
  EXPECT_EQ(f.strategy.withheld(), 0u);
  EXPECT_EQ(f.published.size(), 1u);
  EXPECT_EQ(f.strategy.blocks_published(), 1u);
}

TEST(WithholdingStrategy, WinsRaceWithNextOwnBlock) {
  Fixture f;
  f.own_win(1);
  f.public_block(f.tree.genesis(), 100);  // race (both published)
  f.own_win(2);            // SM1 0' -> win: publish immediately
  EXPECT_EQ(f.strategy.withheld(), 0u);
  EXPECT_EQ(f.published.size(), 2u);
}

TEST(WithholdingStrategy, OverridesWithLeadOfTwo) {
  Fixture f;
  f.own_win(1);
  f.own_win(2);
  EXPECT_EQ(f.strategy.withheld(), 2u);
  f.public_block(f.tree.genesis(), 100);  // lead becomes 1 -> reveal everything
  EXPECT_EQ(f.strategy.withheld(), 0u);
  EXPECT_EQ(f.published.size(), 2u);
}

TEST(WithholdingStrategy, MatchesWithLongLead) {
  Fixture f;
  for (std::uint64_t i = 1; i <= 4; ++i) f.own_win(i);
  f.public_block(f.tree.genesis(), 100);  // lead 3 after their find -> publish one to match
  EXPECT_EQ(f.strategy.withheld(), 3u);
  EXPECT_EQ(f.published.size(), 1u);
}

TEST(WithholdingStrategy, RevealsDoomedBlocksWhenOvertaken) {
  // A heavier public block flips the tree's best tip to the public branch,
  // so the measured lead lands at 0 (private_work reads the new best): SM1
  // reveals the doomed private block and contests at the public work level.
  Fixture f;
  f.own_win(1);
  const BlockId heavy =
      f.add_block(f.tree.genesis(), chain::BlockType::kPow, 2.0, 100);  // public, work 2
  f.strategy.on_accept(heavy, /*own=*/false);
  EXPECT_EQ(f.strategy.withheld(), 0u);
  EXPECT_EQ(f.published.size(), 1u);
}

TEST(WithholdingStrategy, OwnZeroWeightBlocksJoinThePrivateChain) {
  // The NG case: the adversary leads its withheld epoch and builds
  // microblocks on the private chain; they must not read as public
  // catch-up, and they publish together with their key block.
  Fixture f;
  const BlockId key = f.own_win(1);
  // Two "microblocks" extending the private key block, built by ourselves.
  // The relay decision happens BEFORE on_accept registers the block (the
  // accept_block hook order) — it must already be suppressed then, or the
  // announcement leaks the whole withheld epoch via orphan-chasing.
  const BlockId m1 = f.add_block(key, chain::BlockType::kMicro, 0.0, 2);
  EXPECT_TRUE(f.strategy.suppress_relay(m1, /*own=*/true));
  f.strategy.on_accept(m1, /*own=*/true);
  const BlockId m2 = f.add_block(m1, chain::BlockType::kMicro, 0.0, 3);
  EXPECT_TRUE(f.strategy.suppress_relay(m2, /*own=*/true));
  f.strategy.on_accept(m2, /*own=*/true);
  EXPECT_EQ(f.strategy.withheld(), 3u);
  EXPECT_TRUE(f.strategy.suppress_relay(m1, /*own=*/true));
  EXPECT_TRUE(f.strategy.suppress_relay(m2, /*own=*/true));

  // An honest key block catches up: the whole epoch (key + micros) reveals.
  f.public_block(f.tree.genesis(), 100);
  EXPECT_EQ(f.strategy.withheld(), 0u);
  EXPECT_EQ(f.published.size(), 3u);
}

}  // namespace
}  // namespace bng::protocol
