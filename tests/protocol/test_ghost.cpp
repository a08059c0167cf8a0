#include "ghost/ghost_node.hpp"

#include <gtest/gtest.h>

#include "../support/harness.hpp"

namespace bng::ghost {
namespace {

using bng::testing::MiniNet;

chain::Params ghost_params() {
  auto p = chain::Params::bitcoin();
  p.protocol = chain::Protocol::kGhost;
  p.max_block_size = 5000;
  return p;
}

TEST(GhostNode, RequiresGhostProtocolParams) {
  MiniNet<GhostNode> net(2, ghost_params());
  SUCCEED();  // construction with correct params works
}

TEST(GhostNode, WrongParamsRejected) {
  EXPECT_THROW(MiniNet<GhostNode> net(2, chain::Params::bitcoin()), std::invalid_argument);
}

TEST(GhostNode, BasicMiningAndPropagation) {
  MiniNet<GhostNode> net(3, ghost_params());
  net.node(0).on_mining_win(1.0);
  net.settle();
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.node(2).tree().best().height, 1u);
}

TEST(GhostNode, HeaviestSubtreeWinsOverLongerChain) {
  // Build the canonical GHOST scenario through the network:
  //   A-branch: 2 blocks chained. B-branch: 1 block with 2 children.
  // Chain rule would pick A (work 2 = work 2 tie actually)... use 3 vs 2:
  // B-subtree has 3 blocks, A-chain has 2: GHOST picks B, longest-chain
  // would pick A on first-seen ties (both depth 2).
  MiniNet<GhostNode> net(6, ghost_params(), /*latency=*/3.0);
  // Node 0 mines A1, A2 privately (high latency delays propagation).
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 0.01);
  net.node(0).on_mining_win(1.0);
  // Node 1 mines B1 concurrently.
  net.node(1).on_mining_win(1.0);
  net.settle(10);
  // Two more miners extend B1 in parallel (each saw B1 first or adopted it).
  // Force them: whoever's tip is under node 1's branch mines.
  auto b1_id = net.node(1).tree().path_from_genesis(net.node(1).tree().best_tip());
  int forked = 0;
  for (NodeId i = 2; i < 6 && forked < 2; ++i) {
    const auto& tree = net.node(i).tree();
    // Mine only if the node's tip is on node 1's branch.
    if (tree.best().block->miner() == 1) {
      net.node(i).on_mining_win(1.0);
      ++forked;
    }
  }
  net.settle(20);
  if (forked == 2) {
    // B-subtree: B1 + 2 children = work 3 > A-chain work 2.
    for (NodeId i = 0; i < 6; ++i) {
      const auto& tree = net.node(i).tree();
      auto path = tree.path_from_genesis(tree.best_tip());
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(tree.facts(path[1]).block->miner(), 1u) << "node " << i;
    }
  }
  (void)b1_id;
}

TEST(GhostNode, RelaysOffChainBlocks) {
  // GHOST propagates ALL blocks (paper §9): a stale-branch block received by
  // a node that prefers another branch must still be forwarded.
  MiniNet<GhostNode> net(3, ghost_params(), /*latency=*/0.01);
  net.node(0).on_mining_win(1.0);
  net.settle();
  // All nodes now know block A. Node 1 mines a competing sibling B.
  // (Force by building on genesis view: impossible via public API, so use
  // a fork via simultaneous mining instead.)
  MiniNet<GhostNode> net2(3, ghost_params(), /*latency=*/1.0);
  net2.node(0).on_mining_win(1.0);
  net2.node(1).on_mining_win(1.0);  // same time: sibling blocks
  net2.settle(20);
  // Every node must know BOTH sibling blocks (2 + genesis = 3 entries),
  // because GHOST relays stale branches too.
  for (NodeId i = 0; i < 3; ++i)
    EXPECT_EQ(net2.node(i).tree().size(), 3u) << "node " << i;
}

TEST(GhostNode, SubtreeWorkDrivesReorg) {
  MiniNet<GhostNode> net(2, ghost_params(), /*latency=*/5.0);
  // Node 0 mines one block; node 1 independently mines one block, then
  // another on top after hearing nothing.
  net.node(0).on_mining_win(1.0);
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 0.1);
  net.node(1).on_mining_win(1.0);
  net.settle(30);
  EXPECT_TRUE(net.converged());
  // Node 1's subtree has work 2 -> wins under GHOST as under longest-chain.
  EXPECT_EQ(net.node(0).tree().best().block->miner(), 1u);
}

}  // namespace
}  // namespace bng::ghost
