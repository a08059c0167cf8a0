#include "ng/ng_node.hpp"

#include <gtest/gtest.h>

#include "../support/harness.hpp"

namespace bng::ng {
namespace {

using bng::testing::MiniNet;

chain::Params ng_params(Seconds micro_interval = 1.0) {
  auto p = chain::Params::bitcoin_ng();
  p.block_interval = 100.0;
  p.microblock_interval = micro_interval;
  p.max_microblock_size = 4000;
  return p;
}

TEST(NgNode, KeyBlockWinMakesLeader) {
  MiniNet<NgNode> net(3, ng_params());
  EXPECT_FALSE(net.node(0).is_leader());
  net.node(0).on_mining_win(1.0);
  EXPECT_TRUE(net.node(0).is_leader());
  EXPECT_EQ(net.node(0).key_blocks_mined(), 1u);
  const auto& tip = net.node(0).tree().best_entry();
  EXPECT_EQ(tip.block->type(), chain::BlockType::kKey);
  ASSERT_TRUE(tip.block->header().leader_key.has_value());
  EXPECT_EQ(*tip.block->header().leader_key, net.node(0).leader_pubkey());
}

TEST(NgNode, LeaderEmitsMicroblocksAtConfiguredRate) {
  MiniNet<NgNode> net(3, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 10.5);
  // ~10 microblocks in 10.5 s at 1/s.
  EXPECT_GE(net.node(0).microblocks_generated(), 9u);
  EXPECT_LE(net.node(0).microblocks_generated(), 11u);
  EXPECT_EQ(net.trace().micro_blocks(), net.node(0).microblocks_generated());
}

TEST(NgNode, MicroblocksPropagateAndExtendChains) {
  MiniNet<NgNode> net(3, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 5.5);
  net.settle();
  EXPECT_TRUE(net.consistent());
  const auto& tip = net.node(2).tree().best_entry();
  EXPECT_EQ(tip.block->type(), chain::BlockType::kMicro);
  EXPECT_GT(tip.chain_tx_count, 0u);
}

TEST(NgNode, MicroblocksAreSigned) {
  MiniNet<NgNode> net(2, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 1.5);
  const auto& tree = net.node(0).tree();
  const auto& tip = tree.best_entry();
  ASSERT_EQ(tip.block->type(), chain::BlockType::kMicro);
  ASSERT_TRUE(tip.block->header().signature.has_value());
  EXPECT_TRUE(crypto::verify(net.node(0).leader_pubkey(),
                             tip.block->header().signing_hash(),
                             *tip.block->header().signature));
}

TEST(NgNode, LeadershipTransfersOnNewKeyBlock) {
  MiniNet<NgNode> net(3, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);
  EXPECT_TRUE(net.node(0).is_leader());
  net.node(1).on_mining_win(1.0);
  net.settle();
  EXPECT_FALSE(net.node(0).is_leader());
  EXPECT_TRUE(net.node(1).is_leader());
  // The old leader stops producing.
  auto count_before = net.node(0).microblocks_generated();
  net.queue().run_until(net.queue().now() + 5.0);
  EXPECT_EQ(net.node(0).microblocks_generated(), count_before);
  EXPECT_GT(net.node(1).microblocks_generated(), 0u);
}

TEST(NgNode, MicroblocksCarryNoWeight) {
  MiniNet<NgNode> net(2, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 5.5);
  const auto& tip = net.node(0).tree().best_entry();
  EXPECT_EQ(tip.block->type(), chain::BlockType::kMicro);
  EXPECT_DOUBLE_EQ(tip.chain_work, 1.0);  // only the key block weighs
  EXPECT_GT(tip.height, 1u);
}

TEST(NgNode, LeaderSwitchForkPrunedByKeyBlock) {
  // Fig 2: the previous leader's unseen microblocks are pruned by the new
  // key block. High latency widens the fork window. A block needs three
  // one-way trips (inv/getdata/block) to cross a hop, so leadership
  // knowledge lags by ~3 * latency.
  MiniNet<NgNode> net(2, ng_params(1.0), /*latency=*/2.5);
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 12.0);
  // Node 1 mines a key block on its (laggy) view: it lacks recent micros.
  net.node(1).on_mining_win(1.0);
  net.settle(60);
  EXPECT_TRUE(net.consistent());
  const auto& tip = net.node(0).tree().best_entry();
  EXPECT_DOUBLE_EQ(tip.chain_work, 2.0);
  // Some of node 0's microblocks were pruned: generated more than on chain.
  const auto& tree = net.node(0).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  std::size_t on_chain_micro = 0;
  for (auto idx : path)
    if (tree.entry(idx).block->type() == chain::BlockType::kMicro) ++on_chain_micro;
  EXPECT_LT(on_chain_micro, net.node(0).microblocks_generated() +
                                net.node(1).microblocks_generated());
}

TEST(NgNode, FeeSplit40To60) {
  // Epoch fees F must split 40% to the epoch leader, 60% (+subsidy) to the
  // next key-block miner (§4.4).
  auto params = ng_params(1.0);
  MiniNet<NgNode> net(2, params);
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);  // a few microblocks
  net.settle();
  net.node(1).on_mining_win(1.0);
  net.settle();
  // Locate node 1's key block on the chain (the tip may already be a newer
  // microblock).
  const auto& tree = net.node(1).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  const chain::BlockTree::Entry* key2 = nullptr;
  for (auto idx : path) {
    const auto& e = tree.entry(idx);
    if (e.block->type() == chain::BlockType::kKey && e.block->miner() == 1) key2 = &e;
  }
  ASSERT_NE(key2, nullptr);
  const auto& tip = *key2;
  const auto& prev_epoch = tree.entry(tree.entry(
      static_cast<std::uint32_t>(tip.parent)).epoch_key_block);
  const Amount epoch_fees = tree.entry(static_cast<std::uint32_t>(tip.parent)).chain_fee_sum -
                            prev_epoch.chain_fee_sum;
  ASSERT_GT(epoch_fees, 0);
  const auto& coinbase = *tip.block->txs()[0];
  ASSERT_EQ(coinbase.outputs.size(), 2u);
  const Amount leader_share = coinbase.outputs[0].value;
  const Amount miner_share = coinbase.outputs[1].value;
  EXPECT_EQ(leader_share, static_cast<Amount>(0.4 * static_cast<double>(epoch_fees)));
  EXPECT_EQ(miner_share, params.block_subsidy + epoch_fees - leader_share);
  EXPECT_EQ(coinbase.outputs[0].owner, net.node(0).reward_address());
  EXPECT_EQ(coinbase.outputs[1].owner, net.node(1).reward_address());
}

TEST(NgNode, FirstKeyBlockPaysAllToMiner) {
  MiniNet<NgNode> net(2, ng_params());
  net.node(0).on_mining_win(1.0);
  const auto& tip = net.node(0).tree().best_entry();
  const auto& coinbase = *tip.block->txs()[0];
  ASSERT_EQ(coinbase.outputs.size(), 1u);
  EXPECT_EQ(coinbase.outputs[0].value, ng_params().block_subsidy);
  EXPECT_EQ(coinbase.outputs[0].owner, net.node(0).reward_address());
}

TEST(NgNode, RespectsMicroblockSizeLimit) {
  auto params = ng_params(1.0);
  MiniNet<NgNode> net(2, params);
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);
  const auto& tree = net.node(0).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  for (auto idx : path) {
    const auto& block = *tree.entry(idx).block;
    if (block.type() == chain::BlockType::kMicro) {
      EXPECT_LE(block.wire_size(), params.max_microblock_size);
    }
  }
}

TEST(NgNode, InvalidSignatureMicroblockRejected) {
  MiniNet<NgNode> net(2, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.settle();
  // Forge a microblock signed by the WRONG key extending node 0's key block.
  auto bad_signer = crypto::PrivateKey::from_seed(0xbad);
  chain::BlockHeader h;
  h.type = chain::BlockType::kMicro;
  h.prev = net.node(1).tree().best_entry().block->id();
  h.timestamp = net.queue().now();
  std::vector<chain::TxPtr> txs{net.workload().txs[0]};
  h.merkle_root = chain::compute_merkle_root(txs);
  h.signature = crypto::sign(bad_signer, h.signing_hash());
  auto forged = std::make_shared<chain::Block>(h, txs, 0);
  net.network().send(0, 1, std::make_shared<protocol::BlockMessage>(forged));
  net.settle();
  EXPECT_FALSE(net.node(1).tree().contains(forged->id()));
}

TEST(NgNode, FutureTimestampMicroblockRejected) {
  MiniNet<NgNode> net(2, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.settle();
  chain::BlockHeader h;
  h.type = chain::BlockType::kMicro;
  h.prev = net.node(1).tree().best_entry().block->id();
  h.timestamp = net.queue().now() + 1000.0;  // far future
  std::vector<chain::TxPtr> txs{net.workload().txs[0]};
  h.merkle_root = chain::compute_merkle_root(txs);
  // Signed by the *correct* leader key, so only the timestamp is at fault.
  auto leader_sk = crypto::PrivateKey::from_seed(0x6e670000ull + 0);
  h.signature = crypto::sign(leader_sk, h.signing_hash());
  auto forged = std::make_shared<chain::Block>(h, txs, 0);
  net.network().send(0, 1, std::make_shared<protocol::BlockMessage>(forged));
  net.settle();
  EXPECT_FALSE(net.node(1).tree().contains(forged->id()));
}

TEST(NgNode, MinIntervalRateLimitEnforced) {
  // A leader swamping the system with microblocks violates §4.2.
  auto params = ng_params(1.0);
  params.min_microblock_interval = 5.0;  // stricter than production rate
  MiniNet<NgNode> net(2, params);
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 4.2);
  net.settle();
  // Node 0 produced microblocks every 1 s, but peers must reject the ones
  // violating the 5 s minimum: node 1's chain keeps at most the key block
  // (first microblock is also invalid: gap from key block < 5 s).
  const auto& tree = net.node(1).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  for (std::size_t i = 1; i < path.size(); ++i) {
    const auto& e = tree.entry(path[i]);
    if (e.block->type() != chain::BlockType::kMicro) continue;
    const auto& parent = tree.entry(path[i - 1]);
    EXPECT_GE(e.block->header().timestamp - parent.block->header().timestamp, 5.0);
  }
}

TEST(NgNode, EpochFeeTrackingAcrossMultipleEpochs) {
  MiniNet<NgNode> net(3, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 2.5);
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 2.5);
  net.node(2).on_mining_win(1.0);
  net.settle();
  EXPECT_TRUE(net.consistent());
  // Every key block after the first with nonzero epoch fees has a 2-output
  // coinbase.
  const auto& tree = net.node(0).tree();
  auto path = tree.path_from_genesis(tree.best_tip());
  int split_coinbases = 0;
  for (auto idx : path) {
    const auto& block = *tree.entry(idx).block;
    if (block.type() == chain::BlockType::kKey &&
        block.txs()[0]->outputs.size() == 2)
      ++split_coinbases;
  }
  EXPECT_GE(split_coinbases, 2);
}

}  // namespace
}  // namespace bng::ng
