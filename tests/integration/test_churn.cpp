// Churn robustness (paper §1: "robust to extreme churn").
//
// Nodes flap on a schedule while the protocols run; the chain must keep
// growing and rejoining nodes must resynchronize.
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/miner_distribution.hpp"

namespace bng {
namespace {

using sim::Experiment;
using sim::ExperimentConfig;

ExperimentConfig churny_config(chain::Protocol protocol, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.params = protocol == chain::Protocol::kBitcoinNG ? chain::Params::bitcoin_ng()
                                                       : chain::Params::bitcoin();
  cfg.params.block_interval = protocol == chain::Protocol::kBitcoinNG ? 60 : 15;
  cfg.params.microblock_interval = 5;
  cfg.params.max_block_size = 6000;
  cfg.params.max_microblock_size = 6000;
  cfg.num_nodes = 40;
  cfg.target_blocks = 25;
  cfg.drain_time = 60;
  cfg.seed = seed;
  // A third of the network flaps: down for one interval, up for the next.
  // Only non-mining nodes flap so the PoW schedule stays meaningful.
  auto powers = sim::exponential_powers(cfg.num_nodes, -0.27);
  for (NodeId n = 25; n < 38; ++n) {
    powers[n] = 0.0;
    for (int cycle = 0; cycle < 6; ++cycle) {
      cfg.churn.push_back({30.0 * (2 * cycle + 1) + n, n, false});
      cfg.churn.push_back({30.0 * (2 * cycle + 2) + n, n, true});
    }
  }
  cfg.custom_powers = powers;
  return cfg;
}

class ChurnTest : public ::testing::TestWithParam<chain::Protocol> {};

TEST_P(ChurnTest, ChainKeepsGrowingUnderChurn) {
  Experiment exp(churny_config(GetParam(), 91));
  exp.run();
  auto m = metrics::compute_metrics(exp);
  EXPECT_GT(m.main_chain_txs, 0u);
  EXPECT_GT(m.tx_per_sec, 0.0);
  // Mining continues at the scheduled rate despite flapping listeners.
  EXPECT_GE(exp.trace().pow_blocks(), GetParam() == chain::Protocol::kBitcoinNG
                                          ? 1u
                                          : 25u);
}

TEST_P(ChurnTest, StableNodesStillAgree) {
  Experiment exp(churny_config(GetParam(), 92));
  exp.run();
  // The stable miners (0..24) must share the same PoW prefix at the end.
  const auto& g = exp.global_tree();
  const Hash256 best_tip = g.best().block->id();
  int agree = 0;
  for (NodeId n = 0; n < 25; ++n) {
    const auto& t = exp.nodes()[n]->tree();
    if (auto id = t.find(best_tip); id && t.is_ancestor(*id, t.best_tip()))
      ++agree;
    else if (t.best().block->id() == best_tip)
      ++agree;
  }
  EXPECT_GE(agree, 20);
}

TEST_P(ChurnTest, FlappedNodesResynchronize) {
  auto cfg = churny_config(GetParam(), 93);
  Experiment exp(cfg);
  exp.run();
  // Flapping nodes end online and catch up via orphan-chasing on the next
  // announcement. A node whose final rejoin lands after the last block was
  // announced has nothing to chase (there is no periodic resync, as in a
  // quiet bitcoind), so require a solid majority rather than all.
  const auto& reference = exp.nodes()[0]->tree();
  int caught_up = 0;
  for (NodeId n = 25; n < 38; ++n) {
    const auto& t = exp.nodes()[n]->tree();
    if (t.size() > reference.size() / 2) ++caught_up;
  }
  EXPECT_GE(caught_up, 8) << "of 13 flapping nodes";
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChurnTest,
                         ::testing::Values(chain::Protocol::kBitcoin,
                                           chain::Protocol::kBitcoinNG));

TEST(Churn, InvalidChurnNodeRejected) {
  auto cfg = churny_config(chain::Protocol::kBitcoin, 94);
  cfg.churn.push_back({1.0, 9999, false});
  Experiment exp(cfg);
  EXPECT_THROW(exp.build(), std::invalid_argument);
}

}  // namespace
}  // namespace bng
