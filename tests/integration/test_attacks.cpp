// Adversarial scenarios: split-brain microblock forks, leader crashes,
// censorship, and the incentive mechanisms that contain them (§4.5, §5.2).
#include <gtest/gtest.h>

#include <unordered_set>

#include "../support/harness.hpp"
#include "chain/utxo.hpp"
#include "metrics/metrics.hpp"
#include "ng/ng_node.hpp"
#include "sim/experiment.hpp"

namespace bng {
namespace {

using bng::testing::MiniNet;
using bng::testing::Topo;

chain::Params ng_params(Seconds micro_interval = 1.0) {
  auto p = chain::Params::bitcoin_ng();
  p.block_interval = 100.0;
  p.microblock_interval = micro_interval;
  p.max_microblock_size = 4000;
  return p;
}

TEST(Attacks, SplitBrainResolvedAndPoisoned) {
  // A malicious leader in the middle of a line topology signs two
  // microblocks with the same parent (splitting the brain, §4.5). The fork
  // resolves at the next key block and the cheater gets poisoned.
  MiniNet<ng::NgNode> net(5, ng_params(), /*latency=*/0.05, 10e6, 2000, true,
                          Topo::kLine);
  net.node(2).on_mining_win(1.0);  // middle node leads
  net.queue().run_until(net.queue().now() + 2.5);
  net.settle();
  const Hash256 kb = [&] {
    const auto& t = net.node(2).tree();
    for (const BlockId id : t.path_from_genesis(t.best_tip()))
      if (t.facts(id).block->type() == chain::BlockType::kKey)
        return t.facts(id).block->id();
    return Hash256{};
  }();
  ASSERT_FALSE(kb.is_zero());
  net.node(2).forge_microblock(kb);  // equivocation: second child of the key block
  net.settle(10);
  EXPECT_FALSE(net.trace().frauds().empty());

  // An honest edge node takes over; brains re-merge and the poison lands.
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 5.0);
  net.settle(20);
  EXPECT_TRUE(net.consistent());
  EXPECT_EQ(net.node(0).poisons_placed(), 1u);
}

TEST(Attacks, PoisonedLeaderLosesRevenueOnReplay) {
  // Economic end-to-end: replay a poisoned chain through the Ledger and
  // check the cheater's balance was revoked while the poisoner gained.
  MiniNet<ng::NgNode> net(3, ng_params());
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 2.5);
  net.settle();
  const Hash256 kb = [&] {
    const auto& t = net.node(0).tree();
    for (const BlockId id : t.path_from_genesis(t.best_tip()))
      if (t.facts(id).block->type() == chain::BlockType::kKey)
        return t.facts(id).block->id();
    return Hash256{};
  }();
  net.node(0).forge_microblock(kb);
  net.settle();
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);
  net.settle();
  ASSERT_EQ(net.node(1).poisons_placed(), 1u);

  // Replay node 1's main chain.
  auto params = ng_params();
  chain::Ledger ledger(params);
  ASSERT_TRUE(ledger.apply_block(*net.genesis()).ok);
  const auto& t = net.node(1).tree();
  for (const BlockId id : t.path_from_genesis(t.best_tip())) {
    if (id == t.genesis()) continue;
    auto r = ledger.apply_block(*t.facts(id).block);
    ASSERT_TRUE(r.ok) << r.error;
  }
  // Cheater's balance: poison revoked its subsidy and any fee share.
  EXPECT_EQ(ledger.total_balance(net.node(0).reward_address()), 0);
  // Poisoner holds its own subsidy + 60% share + bounty > subsidy.
  EXPECT_GT(ledger.total_balance(net.node(1).reward_address()),
            params.block_subsidy);
  EXPECT_TRUE(ledger.is_poisoned(kb));
}

TEST(Attacks, CrashedLeaderStallsOnlyItsEpoch) {
  // §5.2: "a benign leader that crashes during his epoch of leadership will
  // publish no microblocks. Their influence ends once the next leader
  // publishes his key block."
  MiniNet<ng::NgNode> net(3, ng_params(1.0));
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 3.5);
  net.settle();
  const auto micros_before = net.trace().micro_blocks();
  EXPECT_GT(micros_before, 0u);
  // Leader crashes.
  net.network().set_offline(0, true);
  net.queue().run_until(net.queue().now() + 10.0);
  // Its microblocks no longer reach anyone; node 1's view is frozen.
  const auto frozen_tip = net.node(1).tree().best().block->id();
  net.queue().run_until(net.queue().now() + 5.0);
  EXPECT_EQ(net.node(1).tree().best().block->id(), frozen_tip);
  // The next key block restores liveness without the crashed leader.
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 5.0);
  net.settle();
  EXPECT_GT(net.node(2).tree().best().chain_tx_count,
            net.node(1).tree().facts(*net.node(1).tree().find(frozen_tip)).chain_tx_count);
}

TEST(Attacks, PrunedMicroblockTransactionsReappearOnMainChain) {
  // §4.3 confirmation time: transactions in to-be-pruned microblocks are
  // not lost — the next leader re-serializes them.
  MiniNet<ng::NgNode> net(2, ng_params(1.0), /*latency=*/2.0);
  net.node(0).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 10.0);
  // Node 1 mines a key block while lagging: prunes recent microblocks.
  net.node(1).on_mining_win(1.0);
  net.queue().run_until(net.queue().now() + 15.0);
  net.settle(30);
  // Find a pruned microblock in node 0's tree (off its final main chain).
  const auto& t = net.node(0).tree();
  const auto main_path = t.path_from_genesis(t.best_tip());
  const std::unordered_set<BlockId> on_main(main_path.begin(), main_path.end());
  const chain::Block* pruned = nullptr;
  for (const BlockId id : t.accepted()) {
    if (on_main.count(id) == 0 && t.facts(id).block->type() == chain::BlockType::kMicro &&
        !t.facts(id).block->txs().empty())
      pruned = t.facts(id).block.get();
  }
  if (pruned == nullptr) GTEST_SKIP() << "no pruned microblock this seed";
  // Every payload tx of the pruned block reappears on the main chain.
  std::unordered_set<Hash256, Hash256Hasher> main_txs;
  for (const BlockId id : t.path_from_genesis(t.best_tip()))
    for (const auto& tx : t.facts(id).block->txs()) main_txs.insert(tx->id());
  for (const auto& tx : pruned->txs()) {
    if (tx->is_coinbase()) continue;
    EXPECT_EQ(main_txs.count(tx->id()), 1u);
  }
}

TEST(Attacks, MiningPowerDropKeepsMicroblockCadence) {
  // §5.2 "Resilience to Mining Power Variation": when most mining power
  // vanishes, key blocks stall but transaction processing continues at the
  // same rate in microblocks.
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 20;
  cfg.params.microblock_interval = 2;
  cfg.params.max_microblock_size = 4000;
  cfg.num_nodes = 20;
  cfg.target_blocks = 10;
  cfg.drain_time = 1;
  cfg.seed = 31;
  cfg.retarget = chain::RetargetRule{10, 20.0, 4.0};
  sim::Experiment exp(cfg);
  exp.build();
  exp.scheduler().start();
  exp.queue().run_until(200.0);
  const auto micro_before = exp.trace().micro_blocks();
  ASSERT_GT(micro_before, 0u);
  // 90% of power leaves; difficulty stays tuned for the old rate.
  for (std::uint32_t i = 0; i < 18; ++i) exp.scheduler().set_power(i, 1e-9);
  const double stalled_interval = exp.scheduler().current_mean_interval();
  exp.queue().run_until(400.0);
  const auto micro_after = exp.trace().micro_blocks() - micro_before;
  // Key blocks now crawl...
  EXPECT_GT(stalled_interval, 3 * 20.0);
  // ...but microblocks kept flowing at roughly interval/2 per second.
  EXPECT_GE(micro_after, 60u);  // 200 s / 2 s = 100 nominal, allow slack
  exp.scheduler().stop();
}

TEST(Attacks, OfflineMinorityDoesNotStallBitcoin) {
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.block_interval = 10;
  cfg.params.max_block_size = 4000;
  cfg.num_nodes = 20;
  cfg.target_blocks = 15;
  cfg.drain_time = 20;
  cfg.seed = 32;
  sim::Experiment exp(cfg);
  exp.build();
  for (NodeId i = 15; i < 20; ++i) exp.network().set_offline(i, true);
  exp.run();
  EXPECT_GE(exp.trace().pow_blocks(), 15u);
  auto m = metrics::compute_metrics(exp);
  EXPECT_GT(m.tx_per_sec, 0.0);
}

}  // namespace
}  // namespace bng
