// End-to-end scenarios: the paper's qualitative claims reproduced at small
// scale, plus full-stack consistency checks (ledger replay of simulated
// chains, cross-protocol comparisons).
#include <gtest/gtest.h>

#include <unordered_set>

#include "chain/utxo.hpp"
#include "metrics/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/miner_distribution.hpp"

namespace bng {
namespace {

using metrics::compute_metrics;
using sim::Experiment;
using sim::ExperimentConfig;

ExperimentConfig base_config(chain::Protocol protocol, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.params = protocol == chain::Protocol::kBitcoinNG ? chain::Params::bitcoin_ng()
                                                       : chain::Params::bitcoin();
  cfg.params.protocol = protocol;
  cfg.num_nodes = 60;
  cfg.target_blocks = 30;
  cfg.drain_time = 40;
  cfg.seed = seed;
  return cfg;
}

TEST(EndToEnd, NgOutperformsStressedBitcoinOnSecurityMetrics) {
  // The paper's headline: at matched payload throughput, pushing Bitcoin's
  // rate degrades utilization and fairness while NG stays optimal.
  auto btc_cfg = base_config(chain::Protocol::kBitcoin, 21);
  btc_cfg.params.block_interval = 2.0;   // very fast Bitcoin blocks
  btc_cfg.params.max_block_size = 4000;
  Experiment btc(btc_cfg);
  btc.run();

  auto ng_cfg = base_config(chain::Protocol::kBitcoinNG, 21);
  ng_cfg.params.block_interval = 60;     // key blocks
  ng_cfg.params.microblock_interval = 2.0;
  ng_cfg.params.max_microblock_size = 4000;
  Experiment ng(ng_cfg);
  ng.run();

  auto btc_m = compute_metrics(btc);
  auto ng_m = compute_metrics(ng);
  EXPECT_LT(btc_m.mining_power_utilization, 0.9);
  EXPECT_DOUBLE_EQ(ng_m.mining_power_utilization, 1.0);
  EXPECT_GE(ng_m.fairness, btc_m.fairness - 0.05);
  EXPECT_GT(ng_m.tx_per_sec, 0.0);
}

TEST(EndToEnd, NgChainReplaysThroughLedger) {
  // The simulated NG main chain must satisfy the full UTXO state machine:
  // value conservation, fee split, coinbase structure.
  auto cfg = base_config(chain::Protocol::kBitcoinNG, 22);
  cfg.params.microblock_interval = 3.0;
  cfg.params.max_microblock_size = 6000;
  Experiment exp(cfg);
  exp.run();

  chain::Ledger ledger(cfg.params);
  ASSERT_TRUE(ledger.apply_block(*exp.genesis()).ok);
  const auto& g = exp.global_tree();
  auto path = g.path_from_genesis(g.best_tip());
  std::size_t applied = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    auto result = ledger.apply_block(*g.facts(path[i]).block);
    ASSERT_TRUE(result.ok) << "block " << i << ": " << result.error;
    ++applied;
  }
  EXPECT_GT(applied, 10u);
  EXPECT_GT(ledger.transactions_applied(), applied);
}

TEST(EndToEnd, BitcoinChainReplaysThroughLedger) {
  auto cfg = base_config(chain::Protocol::kBitcoin, 23);
  cfg.params.block_interval = 30;
  cfg.params.max_block_size = 6000;
  Experiment exp(cfg);
  exp.run();

  chain::Ledger ledger(cfg.params);
  ASSERT_TRUE(ledger.apply_block(*exp.genesis()).ok);
  const auto& g = exp.global_tree();
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    if (id == g.genesis()) continue;
    auto result = ledger.apply_block(*g.facts(id).block);
    ASSERT_TRUE(result.ok) << result.error;
  }
}

TEST(EndToEnd, NoTransactionAppearsTwiceOnMainChain) {
  auto cfg = base_config(chain::Protocol::kBitcoinNG, 24);
  Experiment exp(cfg);
  exp.run();
  const auto& g = exp.global_tree();
  std::unordered_set<Hash256, Hash256Hasher> seen;
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    for (const auto& tx : g.facts(id).block->txs()) {
      auto [it, inserted] = seen.insert(tx->id());
      EXPECT_TRUE(inserted) << "duplicate tx on main chain";
    }
  }
}

TEST(EndToEnd, LeaderEpochsPartitionMicroblocks) {
  // Every main-chain microblock is signed by its epoch's key (§4.2).
  auto cfg = base_config(chain::Protocol::kBitcoinNG, 25);
  cfg.verify_signatures = true;  // full cryptographic check
  cfg.num_nodes = 20;
  cfg.target_blocks = 15;
  Experiment exp(cfg);
  exp.run();
  const auto& g = exp.global_tree();
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    const auto& e = g.facts(id);
    if (e.block->type() != chain::BlockType::kMicro) continue;
    const auto& epoch = g.facts(e.epoch_key_block);
    ASSERT_TRUE(epoch.block->header().leader_key.has_value());
    ASSERT_TRUE(e.block->header().signature.has_value());
    EXPECT_TRUE(crypto::verify(*epoch.block->header().leader_key,
                               e.block->header().signing_hash(),
                               *e.block->header().signature));
  }
}

TEST(EndToEnd, ChurnNodesCatchUpAfterRejoin) {
  // Robustness to churn (§1): a node that misses an interval of the run
  // re-synchronizes once back online.
  auto cfg = base_config(chain::Protocol::kBitcoin, 26);
  cfg.params.block_interval = 10;
  cfg.params.max_block_size = 8000;
  cfg.num_nodes = 20;
  cfg.target_blocks = 10;
  // Node 5 is fully offline: no mining power either.
  auto powers = sim::exponential_powers(20, -0.27);
  powers[5] = 0.0;
  cfg.custom_powers = powers;
  Experiment exp(cfg);
  exp.build();
  exp.network().set_offline(5, true);
  exp.run();
  // Node 5 missed everything.
  EXPECT_EQ(exp.nodes()[5]->tree().size(), 1u);
  exp.network().set_offline(5, false);
  // One more block triggers inv -> orphan-chase -> full sync.
  exp.nodes()[0]->on_mining_win(1.0);
  exp.queue().run_until(exp.queue().now() + 120);
  EXPECT_EQ(exp.nodes()[5]->tree().best().block->id(),
            exp.nodes()[0]->tree().best().block->id());
}

TEST(EndToEnd, BandwidthAccountingScalesWithBlocks) {
  auto cfg = base_config(chain::Protocol::kBitcoin, 27);
  cfg.num_nodes = 15;
  cfg.target_blocks = 5;
  Experiment small(cfg);
  small.run();
  cfg.target_blocks = 15;
  Experiment large(cfg);
  large.run();
  EXPECT_GT(large.network().bytes_sent(), small.network().bytes_sent());
  EXPECT_GT(large.network().messages_sent(), small.network().messages_sent());
}

TEST(EndToEnd, GhostAndBitcoinAgreeAtLowContention) {
  // With slow blocks both fork-choice rules coincide.
  for (auto protocol : {chain::Protocol::kBitcoin, chain::Protocol::kGhost}) {
    auto cfg = base_config(protocol, 28);
    cfg.params.block_interval = 60;
    cfg.params.max_block_size = 10'000;  // small blocks: propagation << interval
    cfg.num_nodes = 20;
    cfg.target_blocks = 10;
    Experiment exp(cfg);
    exp.run();
    auto m = compute_metrics(exp);
    EXPECT_GT(m.mining_power_utilization, 0.9)
        << "protocol " << static_cast<int>(protocol);
  }
}

}  // namespace
}  // namespace bng
