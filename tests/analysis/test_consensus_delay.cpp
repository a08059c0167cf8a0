// Differential tests: metrics::consensus_delay (one merged pass over tip
// histories, one vote per distinct tip) must equal the per-node rescan it
// replaced, exactly — EXPECT_EQ on the double, no tolerance — across fork
// choices, tie-break biases, adversaries, faults and power changes.
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "runner/record.hpp"
#include "runner/scenario.hpp"
#include "sim/experiment.hpp"
#include "support/reference_consensus_delay.hpp"

namespace bng::metrics {
namespace {

using sim::Experiment;
using sim::ExperimentConfig;

/// Fork-heavy Bitcoin: 3 s blocks against seconds-scale propagation.
ExperimentConfig stressed_bitcoin(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.block_interval = 3.0;
  cfg.params.max_block_size = 9000;
  cfg.num_nodes = 30;
  cfg.target_blocks = 30;
  cfg.drain_time = 30;
  cfg.seed = seed;
  return cfg;
}

TEST(ConsensusDelay, MatchesReferenceUnderGhostForkChoice) {
  ExperimentConfig cfg = stressed_bitcoin(41);
  cfg.params.protocol = chain::Protocol::kGhost;
  Experiment exp(cfg);
  exp.run();
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, MatchesReferenceUnderBiasedRandomTieBreak) {
  ExperimentConfig cfg = stressed_bitcoin(42);
  cfg.params.tie_switch_prob = 0.8;  // gamma != 0.5 takes the uniform() path
  Experiment exp(cfg);
  exp.run();
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, MatchesReferenceWithSelfishMiner) {
  ExperimentConfig cfg = stressed_bitcoin(43);
  cfg.params.block_interval = 8.0;
  cfg.target_blocks = 40;
  cfg.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  cfg.adversary.power_share = 0.35;
  cfg.adversary.gamma = 0.3;
  Experiment exp(cfg);
  exp.run();
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, MatchesReferenceAcrossPartitionAndHeal) {
  // partition_heal's shape: half the overlay cut off, then reconnected, so
  // two long branches race and one is abandoned wholesale.
  ExperimentConfig cfg = stressed_bitcoin(44);
  cfg.params.block_interval = 10.0;
  cfg.target_blocks = 30;
  net::FaultPlan::Partition cut;
  cut.at = 60.0;
  cut.heal_at = 180.0;
  for (NodeId v = 0; v < cfg.num_nodes / 2; ++v) cut.group.push_back(v);
  cfg.faults.partitions.push_back(std::move(cut));
  Experiment exp(cfg);
  exp.run();
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, MatchesReferenceAcrossMiningPowerDrop) {
  ExperimentConfig cfg = stressed_bitcoin(45);
  cfg.params.block_interval = 10.0;
  cfg.target_blocks = 100;  // sizes the tx pool; the run is stopped by time
  cfg.retarget = chain::RetargetRule{10, 10.0, 4.0};
  Experiment exp(cfg);
  exp.build();
  exp.scheduler().start();
  exp.queue().run_until(200.0);
  const auto& powers = exp.powers();
  for (std::uint32_t i = 0; i < cfg.num_nodes; ++i)
    exp.scheduler().set_power(i, powers[i] * 0.1);
  exp.queue().run_until(600.0);
  exp.scheduler().stop();
  ASSERT_GT(exp.trace().pow_blocks(), 10u);
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, TipAbandonedAndRegainedBetweenSamplesVotesOnce) {
  // fig6 point 0, seed 600 (the GoldenDigest.Fig6 run): between two samples
  // every holder of some tip moves off it and at least one moves back. A
  // merge that re-lists the tip on its return counts its holders twice.
  auto s = runner::make_scenario("fig6", runner::RunKnobs{40, 8});
  ASSERT_TRUE(s.has_value());
  ExperimentConfig cfg = runner::expand(*s).front().config;
  cfg.seed = runner::job_seed(s->seed_base, 0, 0);
  ASSERT_EQ(cfg.seed, 600u);
  Experiment exp(cfg);
  exp.run();
  testing::expect_consensus_delay_matches_reference(exp);
}

TEST(ConsensusDelay, NoGeneratedBlocksIsZero) {
  ExperimentConfig cfg = stressed_bitcoin(46);
  Experiment exp(cfg);
  exp.build();
  EXPECT_EQ(consensus_delay(exp, 0.9, 0.9), 0.0);
  EXPECT_EQ(consensus_delay(exp, 0.9, 0.9), testing::reference_consensus_delay(exp, 0.9, 0.9));
}

}  // namespace
}  // namespace bng::metrics
