#include "bitcoin/bitcoin_node.hpp"

#include <gtest/gtest.h>

#include "../support/harness.hpp"

namespace bng::bitcoin {
namespace {

using bng::testing::MiniNet;

chain::Params btc_params() {
  auto p = chain::Params::bitcoin();
  p.max_block_size = 5000;
  return p;
}

TEST(BitcoinNode, MiningExtendsOwnChain) {
  MiniNet<BitcoinNode> net(3, btc_params());
  net.node(0).on_mining_win(1.0);
  EXPECT_EQ(net.node(0).tree().best_entry().height, 1u);
  EXPECT_EQ(net.node(0).blocks_mined(), 1u);
}

TEST(BitcoinNode, BlockPropagatesToAllPeers) {
  MiniNet<BitcoinNode> net(5, btc_params());
  net.node(0).on_mining_win(1.0);
  net.settle();
  for (NodeId i = 0; i < 5; ++i)
    EXPECT_EQ(net.node(i).tree().best_entry().height, 1u) << "node " << i;
  EXPECT_TRUE(net.converged());
}

TEST(BitcoinNode, ChainGrowsAcrossMiners) {
  MiniNet<BitcoinNode> net(4, btc_params());
  for (int round = 0; round < 6; ++round) {
    net.node(round % 4).on_mining_win(1.0);
    net.settle();
  }
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.node(0).tree().best_entry().height, 6u);
  EXPECT_EQ(net.node(0).tree().best_entry().pow_height, 6u);
}

TEST(BitcoinNode, BlocksCarryWorkloadTransactions) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.node(0).on_mining_win(1.0);
  net.settle();
  const auto& tip = net.node(1).tree().best_entry();
  EXPECT_GT(tip.chain_tx_count, 0u);
  // Coinbase first, then payload.
  EXPECT_TRUE(tip.block->txs()[0]->is_coinbase());
  EXPECT_LE(tip.block->wire_size(), btc_params().max_block_size);
}

TEST(BitcoinNode, ConsecutiveBlocksTakeDisjointTransactions) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.node(0).on_mining_win(1.0);
  net.settle();
  net.node(1).on_mining_win(1.0);
  net.settle();
  const auto& tree = net.node(0).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  ASSERT_EQ(path.size(), 3u);
  const auto& txs1 = tree.entry(path[1]).block->txs();
  const auto& txs2 = tree.entry(path[2]).block->txs();
  std::unordered_set<Hash256, Hash256Hasher> first_ids;
  for (const auto& tx : txs1)
    if (!tx->is_coinbase()) first_ids.insert(tx->id());
  EXPECT_FALSE(first_ids.empty());
  for (const auto& tx : txs2) {
    if (!tx->is_coinbase()) {
      EXPECT_EQ(first_ids.count(tx->id()), 0u);
    }
  }
}

TEST(BitcoinNode, ForkResolvedByHeavierChain) {
  // Nodes 0 and 1 mine concurrently -> fork; the next block settles it.
  MiniNet<BitcoinNode> net(4, btc_params(), /*latency=*/0.5);
  net.node(0).on_mining_win(1.0);
  net.node(1).on_mining_win(1.0);  // same instant: competing height-1 blocks
  net.settle(10);
  EXPECT_GE(net.trace().pow_blocks(), 2u);
  net.node(2).on_mining_win(1.0);  // extends whichever branch node 2 adopted
  net.settle(10);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.node(3).tree().best_entry().chain_work, 2.0);
}

TEST(BitcoinNode, ReorgAdoptsHeavierBranch) {
  MiniNet<BitcoinNode> net(2, btc_params(), /*latency=*/5.0);
  // Node 0 mines one block; node 1 (not yet aware) mines two.
  net.node(0).on_mining_win(1.0);
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 0.1);  // before propagation
  net.node(1).on_mining_win(1.0);
  net.settle(30);
  // Node 0 must have abandoned its own block for node 1's heavier chain.
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.node(0).tree().best_entry().chain_work, 2.0);
  EXPECT_EQ(net.node(0).tree().best_entry().block->miner(), 1u);
}

TEST(BitcoinNode, CoinbasePaysSubsidyPlusFees) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.node(0).on_mining_win(1.0);
  net.settle();
  const auto& block = *net.node(1).tree().best_entry().block;
  Amount fees = block.total_fees();
  ASSERT_FALSE(block.txs().empty());
  const auto& coinbase = *block.txs()[0];
  Amount paid = 0;
  for (const auto& out : coinbase.outputs) paid += out.value;
  EXPECT_EQ(paid, btc_params().block_subsidy + fees);
  EXPECT_EQ(coinbase.outputs[0].owner, net.node(0).reward_address());
}

TEST(BitcoinNode, RejectsWrongTypeBlocks) {
  MiniNet<BitcoinNode> net(2, btc_params());
  // Hand-deliver an NG key block; the Bitcoin node must drop it.
  chain::BlockHeader h;
  h.type = chain::BlockType::kKey;
  h.prev = net.genesis()->id();
  h.leader_key = crypto::PrivateKey::from_seed(9).public_key();
  auto cb = std::make_shared<chain::Transaction>();
  cb->coinbase_height = 1;
  cb->outputs.push_back(chain::TxOutput{1, chain::address_from_tag(1)});
  std::vector<chain::TxPtr> txs{cb};
  h.merkle_root = chain::compute_merkle_root(txs);
  auto key_block = std::make_shared<chain::Block>(h, txs, 1);
  net.network().send(1, 0, std::make_shared<protocol::BlockMessage>(key_block));
  net.settle();
  EXPECT_EQ(net.node(0).tree().size(), 1u);  // still only genesis
}

TEST(BitcoinNode, OversizedBlockRejected) {
  auto params = btc_params();
  MiniNet<BitcoinNode> net(2, params);
  std::vector<chain::TxPtr> txs;
  auto cb = std::make_shared<chain::Transaction>();
  cb->coinbase_height = 1;
  cb->outputs.push_back(chain::TxOutput{1, chain::address_from_tag(1)});
  txs.push_back(cb);
  const std::size_t too_many =
      params.max_block_size / net.workload().tx_wire_size + 5;
  for (std::size_t i = 0; i < too_many; ++i) txs.push_back(net.workload().txs[i]);
  chain::BlockHeader h;
  h.type = chain::BlockType::kPow;
  h.prev = net.genesis()->id();
  h.merkle_root = chain::compute_merkle_root(txs);
  auto fat_block = std::make_shared<chain::Block>(h, txs, 1);
  ASSERT_GT(fat_block->wire_size(), params.max_block_size);
  net.network().send(1, 0, std::make_shared<protocol::BlockMessage>(fat_block));
  net.settle();
  EXPECT_EQ(net.node(0).tree().size(), 1u);
}

TEST(BitcoinNode, OrphanResolvedAfterParentArrives) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.network().set_offline(1, true);
  net.node(0).on_mining_win(1.0);
  net.settle();
  net.network().set_offline(1, false);
  net.node(0).on_mining_win(1.0);  // node 1 sees the child first
  net.settle(20);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.node(1).tree().best_entry().height, 2u);
}

TEST(BitcoinNode, WorkAccumulatesWithDifficulty) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.node(0).on_mining_win(2.5);  // difficulty-scaled win
  net.settle();
  EXPECT_DOUBLE_EQ(net.node(1).tree().best_entry().chain_work, 2.5);
}

TEST(BitcoinNode, TraceRecordsGeneration) {
  MiniNet<BitcoinNode> net(2, btc_params());
  net.node(1).on_mining_win(1.0);
  net.settle();
  ASSERT_EQ(net.trace().generated().size(), 1u);
  EXPECT_EQ(net.trace().generated()[0].miner, 1u);
  EXPECT_EQ(net.trace().pow_blocks(), 1u);
  EXPECT_EQ(net.trace().micro_blocks(), 0u);
}

}  // namespace
}  // namespace bng::bitcoin
