#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "support/reference_consensus_delay.hpp"

namespace bng::metrics {
namespace {

using sim::Experiment;
using sim::ExperimentConfig;

/// One shared pair of small experiments (they are deterministic).
class MetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    {
      ExperimentConfig cfg;
      cfg.params = chain::Params::bitcoin_ng();
      cfg.params.block_interval = 50;
      cfg.params.microblock_interval = 5;
      cfg.params.max_microblock_size = 9000;
      cfg.num_nodes = 40;
      cfg.target_blocks = 30;
      cfg.drain_time = 30;
      cfg.seed = 11;
      ng_ = new Experiment(cfg);
      ng_->run();
    }
    {
      ExperimentConfig cfg;
      cfg.params = chain::Params::bitcoin();
      cfg.params.block_interval = 3.0;  // stressed: frequent forks
      cfg.params.max_block_size = 9000;
      cfg.num_nodes = 40;
      cfg.target_blocks = 40;
      cfg.drain_time = 30;
      cfg.seed = 12;
      btc_ = new Experiment(cfg);
      btc_->run();
    }
  }

  static void TearDownTestSuite() {
    delete ng_;
    delete btc_;
    ng_ = nullptr;
    btc_ = nullptr;
  }

  static Experiment* ng_;
  static Experiment* btc_;
};

Experiment* MetricsTest::ng_ = nullptr;
Experiment* MetricsTest::btc_ = nullptr;

TEST_F(MetricsTest, MainChainIsConnectedPath) {
  auto path = final_main_chain(*ng_);
  ASSERT_GT(path.size(), 1u);
  const auto& g = ng_->global_tree();
  EXPECT_EQ(path[0], g.genesis());
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_EQ(g.facts(path[i]).parent, path[i - 1]);
}

TEST_F(MetricsTest, NgUtilizationIsOptimal) {
  // §8: "In Bitcoin-NG, difficulty is only accrued in key blocks, so
  // microblock forks do not reduce mining power utilization."
  EXPECT_DOUBLE_EQ(mining_power_utilization(*ng_), 1.0);
}

TEST_F(MetricsTest, StressedBitcoinWastesMiningPower) {
  double mpu = mining_power_utilization(*btc_);
  EXPECT_LT(mpu, 0.95);
  EXPECT_GT(mpu, 0.2);
}

TEST_F(MetricsTest, FairnessNearOneForNg) {
  EXPECT_NEAR(fairness(*ng_), 1.0, 0.05);
}

TEST_F(MetricsTest, FairnessWithinValidRange) {
  double f = fairness(*btc_);
  EXPECT_GT(f, 0.3);
  EXPECT_LT(f, 1.3);  // small-sample noise allows >1
}

TEST_F(MetricsTest, ConsensusDelayPositiveAndBounded) {
  double ng_delay = consensus_delay(*ng_, 0.9, 0.9);
  double btc_delay = consensus_delay(*btc_, 0.9, 0.9);
  EXPECT_GT(ng_delay, 0.0);
  EXPECT_GT(btc_delay, 0.0);
  EXPECT_LT(ng_delay, ng_->end_time());
  EXPECT_LT(btc_delay, btc_->end_time());
}

TEST_F(MetricsTest, ConsensusDelayMonotoneInEpsilon) {
  // Requiring more nodes to agree cannot shrink the delay.
  double d50 = consensus_delay(*btc_, 0.5, 0.9);
  double d90 = consensus_delay(*btc_, 0.9, 0.9);
  EXPECT_LE(d50, d90 + 1e-9);
}

TEST_F(MetricsTest, ConsensusDelayMonotoneInDelta) {
  double d50 = consensus_delay(*btc_, 0.9, 0.5);
  double d90 = consensus_delay(*btc_, 0.9, 0.9);
  EXPECT_LE(d50, d90 + 1e-9);
}

TEST_F(MetricsTest, ConsensusDelayMatchesReferenceExactly) {
  testing::expect_consensus_delay_matches_reference(*ng_);
  testing::expect_consensus_delay_matches_reference(*btc_);
}

TEST_F(MetricsTest, TimeToPruneNonNegative) {
  EXPECT_GE(time_to_prune(*ng_), 0.0);
  EXPECT_GE(time_to_prune(*btc_), 0.0);
}

TEST_F(MetricsTest, StressedBitcoinHasPruning) {
  // At 3-second blocks with seconds-scale propagation, forks are certain.
  MetricsReport r = compute_metrics(*btc_);
  EXPECT_LT(r.main_chain_pow_blocks, r.total_pow_blocks);
  EXPECT_GT(r.time_to_prune_p90_s, 0.0);
}

TEST_F(MetricsTest, TimeToWinNonNegativeAndBounded) {
  double ttw = time_to_win(*btc_);
  EXPECT_GE(ttw, 0.0);
  EXPECT_LT(ttw, btc_->end_time());
}

TEST_F(MetricsTest, TransactionFrequencyMatchesChainContents) {
  const auto& g = ng_->global_tree();
  double expected = static_cast<double>(g.best().chain_tx_count) /
                    g.received(g.best_tip());
  EXPECT_DOUBLE_EQ(transaction_frequency(*ng_), expected);
  EXPECT_GT(transaction_frequency(*ng_), 0.0);
}

TEST_F(MetricsTest, PropagationDelaysPopulated) {
  auto delays = propagation_delays(*ng_);
  // blocks * (nodes - 1) receipts, minus losses on pruned branches.
  EXPECT_GT(delays.size(), ng_->trace().generated().size());
  for (double d : delays) EXPECT_GE(d, 0.0);
}

TEST_F(MetricsTest, ReportCountsConsistent) {
  MetricsReport r = compute_metrics(*ng_);
  EXPECT_LE(r.main_chain_pow_blocks, r.total_pow_blocks);
  EXPECT_LE(r.main_chain_micro_blocks, r.total_micro_blocks);
  EXPECT_EQ(r.total_pow_blocks + r.total_micro_blocks,
            ng_->trace().generated().size());
  EXPECT_GT(r.chain_duration_s, 0.0);
  EXPECT_GT(r.main_chain_txs, 0u);
}

}  // namespace
}  // namespace bng::metrics
