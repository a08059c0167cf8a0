// Ancestry queries on deep, randomly forked trees, checked against a
// brute-force parent-walk reference.
//
// The jump-pointer (skew-binary skip ancestor) rewrite made is_ancestor /
// ancestor_at_height / ancestor_at_or_before O(log height); these tests pin
// their answers to the O(height) walks they replaced, over tree shapes the
// unit tests in test_block_tree.cpp are too small to exercise: long chains,
// bushy forks, and mixtures of both. The queries run in the shared
// BlockStore; a tree forwards them. Random picks index the tree's
// acceptance order.
#include "chain/block_tree.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bng::chain {
namespace {

BlockPtr make_block(const Hash256& prev, Seconds ts, std::uint64_t salt) {
  BlockHeader h;
  h.type = BlockType::kPow;
  h.prev = prev;
  h.timestamp = ts;
  h.nonce = salt;
  return std::make_shared<Block>(h, std::vector<TxPtr>{}, 0);
}

// --- Brute-force references (the pre-jump-pointer implementations) ----------

bool ref_is_ancestor(const BlockTree& t, BlockId anc, BlockId desc) {
  BlockId cur = desc;
  const std::uint32_t target_height = t.facts(anc).height;
  while (t.facts(cur).height > target_height) cur = t.facts(cur).parent;
  return cur == anc;
}

BlockId ref_ancestor_at_or_before(const BlockTree& t, BlockId tip, Seconds time) {
  BlockId cur = tip;
  while (t.facts(cur).parent != kNoBlockId && t.facts(cur).block->header().timestamp > time)
    cur = t.facts(cur).parent;
  return cur;
}

/// A uniformly random block of the tree.
BlockId pick(const std::vector<BlockId>& accepted, Rng& rng) {
  return accepted[rng.next_below(accepted.size())];
}

/// Grow a tree of `n` blocks. Each block forks off a random existing block,
/// biased towards recent ones (`recent_bias` high => long chains with thin
/// forks; 0 => uniformly bushy). Timestamps increase monotonically, as in a
/// simulation (a block is built after its parent exists).
BlockTree grow_random_tree(std::uint32_t n, std::uint64_t seed, std::uint32_t recent_bias) {
  auto genesis = make_genesis(1, kCoin);
  Rng rng(seed);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr);
  std::vector<BlockId> accepted{tree.genesis()};
  for (std::uint32_t i = 1; i <= n; ++i) {
    const std::uint32_t span = static_cast<std::uint32_t>(tree.size());
    std::uint32_t parent;
    if (recent_bias > 0 && span > recent_bias && rng.next_below(4) != 0) {
      parent = span - 1 - static_cast<std::uint32_t>(rng.next_below(recent_bias));
    } else {
      parent = static_cast<std::uint32_t>(rng.next_below(span));
    }
    auto block = make_block(tree.facts(accepted[parent]).block->id(),
                            static_cast<Seconds>(i), i);
    accepted.push_back(tree.insert(block, static_cast<Seconds>(i), 1.0));
  }
  return tree;
}

struct Shape {
  std::uint32_t n;
  std::uint64_t seed;
  std::uint32_t recent_bias;
};

class AncestryShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(AncestryShapes, MatchesBruteForceOnRandomPairs) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias);
  const std::vector<BlockId> accepted = tree.accepted();
  Rng rng(shape.seed ^ 0x5eedu);
  for (int i = 0; i < 2000; ++i) {
    const BlockId a = pick(accepted, rng);
    const BlockId b = pick(accepted, rng);
    ASSERT_EQ(tree.is_ancestor(a, b), ref_is_ancestor(tree, a, b))
        << "a=" << a << " b=" << b;
    ASSERT_EQ(tree.is_ancestor(b, a), ref_is_ancestor(tree, b, a))
        << "a=" << a << " b=" << b;
  }
}

TEST_P(AncestryShapes, AncestorAtHeightMatchesParentWalk) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias);
  const std::vector<BlockId> accepted = tree.accepted();
  Rng rng(shape.seed ^ 0xa17u);
  for (int i = 0; i < 500; ++i) {
    const BlockId v = pick(accepted, rng);
    const std::uint32_t h =
        static_cast<std::uint32_t>(rng.next_below(tree.facts(v).height + 1));
    BlockId expect = v;
    while (tree.facts(expect).height > h) expect = tree.facts(expect).parent;
    ASSERT_EQ(tree.store().ancestor_at_height(v, h), expect) << "v=" << v << " h=" << h;
  }
}

TEST_P(AncestryShapes, AncestorAtOrBeforeMatchesBruteForce) {
  const Shape shape = GetParam();
  const BlockTree tree = grow_random_tree(shape.n, shape.seed, shape.recent_bias);
  const std::vector<BlockId> accepted = tree.accepted();
  Rng rng(shape.seed ^ 0x7173u);
  for (int i = 0; i < 500; ++i) {
    const BlockId tip = pick(accepted, rng);
    // Probe below, inside, and above the tree's timestamp range, including
    // exact block timestamps (the <= boundary).
    const Seconds probes[] = {-1.0, 0.0,
                              static_cast<Seconds>(rng.next_below(shape.n + 2)),
                              tree.facts(tip).block->header().timestamp,
                              static_cast<Seconds>(shape.n) + 5.0};
    for (const Seconds t : probes) {
      ASSERT_EQ(tree.ancestor_at_or_before(tip, t), ref_ancestor_at_or_before(tree, tip, t))
          << "tip=" << tip << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AncestryShapes,
    ::testing::Values(Shape{3000, 11, 8},    // deep chains with thin forks
                      Shape{2000, 23, 0},    // uniformly bushy
                      Shape{4000, 37, 64},   // wide recent window
                      Shape{500, 41, 1}),    // near-pure chain
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed) + "_bias" +
             std::to_string(info.param.recent_bias);
    });

TEST(AncestryDeepChain, FiftyThousandBlockChain) {
  // A pure chain 50k deep: the O(height) walks this replaced would make
  // quadratic test loops here; jump pointers keep each query logarithmic.
  auto genesis = make_genesis(1, kCoin);
  BlockTree tree(genesis, TieBreak::kFirstSeen, BlockTree::ForkChoice::kHeaviestChain,
                 nullptr);
  Hash256 prev = genesis->id();
  constexpr std::uint32_t kDepth = 50'000;
  for (std::uint32_t i = 1; i <= kDepth; ++i) {
    auto block = make_block(prev, static_cast<Seconds>(i), i);
    prev = block->id();
    tree.insert(block, static_cast<Seconds>(i), 1.0);
  }
  const BlockId tip = tree.best_tip();
  EXPECT_EQ(tree.facts(tip).height, kDepth);
  // On a pure chain the block accepted at position i sits at height i.
  const std::vector<BlockId>& at_height = tree.accepted();
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(tree.size()));
    const auto b = static_cast<std::uint32_t>(rng.next_below(tree.size()));
    // On a pure chain every pair is ancestor-ordered by height.
    ASSERT_EQ(tree.is_ancestor(at_height[a], at_height[b]), a <= b);
    ASSERT_EQ(tree.store().ancestor_at_height(tip, a), at_height[a]);
  }
  EXPECT_TRUE(tree.is_ancestor(tree.genesis(), tip));
  EXPECT_EQ(tree.ancestor_at_or_before(tip, 0.5), tree.genesis());
  EXPECT_EQ(tree.ancestor_at_or_before(tip, static_cast<Seconds>(kDepth) + 1), tip);
}

}  // namespace
}  // namespace bng::chain
