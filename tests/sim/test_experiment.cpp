#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace bng::sim {
namespace {

ExperimentConfig small_ng(std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 40;
  cfg.params.microblock_interval = 4;
  cfg.params.max_microblock_size = 8000;
  cfg.num_nodes = 30;
  cfg.target_blocks = 20;
  cfg.drain_time = 30;
  cfg.seed = seed;
  return cfg;
}

ExperimentConfig small_btc(std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.block_interval = 20;
  cfg.params.max_block_size = 8000;
  cfg.num_nodes = 30;
  cfg.target_blocks = 20;
  cfg.drain_time = 30;
  cfg.seed = seed;
  return cfg;
}

TEST(Experiment, RunsToTargetBitcoin) {
  Experiment exp(small_btc());
  exp.run();
  EXPECT_GE(exp.trace().pow_blocks(), 20u);
  EXPECT_EQ(exp.trace().micro_blocks(), 0u);
  EXPECT_EQ(exp.nodes().size(), 30u);
}

TEST(Experiment, RunsToTargetNg) {
  Experiment exp(small_ng());
  exp.run();
  EXPECT_GE(exp.trace().micro_blocks(), 20u);
  EXPECT_GE(exp.trace().pow_blocks(), 1u);  // at least one key block to lead
}

TEST(Experiment, DeterministicAcrossRuns) {
  Experiment a(small_ng(7));
  Experiment b(small_ng(7));
  a.run();
  b.run();
  ASSERT_EQ(a.trace().generated().size(), b.trace().generated().size());
  for (std::size_t i = 0; i < a.trace().generated().size(); ++i) {
    EXPECT_EQ(a.trace().generated()[i].block->id(), b.trace().generated()[i].block->id());
    EXPECT_EQ(a.trace().generated()[i].at, b.trace().generated()[i].at);
    EXPECT_EQ(a.trace().generated()[i].miner, b.trace().generated()[i].miner);
  }
  EXPECT_EQ(a.network().bytes_sent(), b.network().bytes_sent());
}

TEST(Experiment, DifferentSeedsDiffer) {
  Experiment a(small_ng(1));
  Experiment b(small_ng(2));
  a.run();
  b.run();
  bool differs = a.trace().generated().size() != b.trace().generated().size();
  if (!differs)
    differs = a.trace().generated()[0].block->id() != b.trace().generated()[0].block->id();
  EXPECT_TRUE(differs);
}

TEST(Experiment, PowersFollowConfiguredExponent) {
  auto cfg = small_btc();
  cfg.power_exponent = -0.27;
  Experiment exp(cfg);
  exp.build();
  const auto& powers = exp.powers();
  EXPECT_NEAR(powers[1] / powers[0], std::exp(-0.27), 1e-9);
}

TEST(Experiment, CustomPowersRespected) {
  auto cfg = small_btc();
  cfg.custom_powers = std::vector<double>(30, 1.0 / 30);
  Experiment exp(cfg);
  exp.build();
  EXPECT_DOUBLE_EQ(exp.powers()[0], 1.0 / 30);
}

TEST(Experiment, CustomPowersSizeMismatchThrows) {
  auto cfg = small_btc();
  cfg.custom_powers = std::vector<double>{0.5, 0.5};
  Experiment exp(cfg);
  EXPECT_THROW(exp.build(), std::invalid_argument);
}

TEST(Experiment, WorkloadTransactionsIdenticallySized) {
  Experiment exp(small_ng());
  EXPECT_THROW((void)exp.workload(), std::logic_error);  // no pool before build()
  exp.build();
  const auto& pool = exp.workload();
  ASSERT_FALSE(pool.size() == 0);
  for (std::size_t i = 1; i < std::min<std::size_t>(pool.size(), 200); ++i)
    EXPECT_EQ(pool.tx(i)->wire_size(), pool.tx_wire_size());
  EXPECT_EQ(pool.tx_wire_size(), exp.config().tx_size);
}

TEST(Experiment, GlobalTreeContainsAllGenerated) {
  Experiment exp(small_btc());
  exp.run();
  EXPECT_EQ(exp.global_tree().size(), exp.trace().generated().size() + 1);  // + genesis
}

TEST(Experiment, NodesConvergeAfterDrain) {
  Experiment exp(small_btc(3));
  exp.run();
  // After drain, an overwhelming majority of nodes agree on the main-chain
  // PoW prefix (the paper's consensus property).
  const auto& g = exp.global_tree();
  const Hash256 best = g.best().block->id();
  int agree = 0;
  for (const auto& node : exp.nodes()) {
    const auto& t = node->tree();
    if (t.best().block->id() == best) ++agree;
  }
  EXPECT_GE(agree, 25);  // 30 nodes, small drain: near-unanimous
}

TEST(Experiment, SyntheticBlocksRespectSizeCaps) {
  Experiment exp(small_ng(5));
  exp.run();
  for (const auto& rec : exp.trace().generated()) {
    if (rec.block->type() == chain::BlockType::kMicro) {
      EXPECT_LE(rec.block->wire_size(), exp.config().params.max_microblock_size);
    }
  }
}

TEST(Experiment, GhostProtocolRuns) {
  auto cfg = small_btc(6);
  cfg.params.protocol = chain::Protocol::kGhost;
  Experiment exp(cfg);
  exp.run();
  EXPECT_GE(exp.trace().pow_blocks(), 20u);
}

TEST(Experiment, ZeroTargetBlocksStopsImmediately) {
  // The stop condition holds before the first step: the scheduler stops
  // without a single win and the run is only the drain.
  auto cfg = small_btc(3);
  cfg.target_blocks = 0;
  cfg.drain_time = 5;
  Experiment exp(cfg);
  exp.run();
  EXPECT_EQ(exp.counted_blocks(), 0u);
  EXPECT_EQ(exp.end_time(), cfg.drain_time);
}

TEST(Experiment, NgRejectsZeroMicroblockInterval) {
  // At zero a leader's microblocks never advance sim time: the run would
  // spin with growing memory instead of ending.
  auto cfg = small_ng();
  cfg.params.microblock_interval = 0;
  // A sweep builds the shared pool first; it refuses before doing the work.
  EXPECT_THROW((void)build_shared_workload(cfg), std::invalid_argument);
  Experiment exp(cfg);
  try {
    exp.build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("microblock_interval"), std::string::npos)
        << e.what();
  }
}

TEST(Experiment, RejectsOutOfRangeInputsBeforeAnyWork) {
  // Each input is refused by the shared-pool build a sweep does first and by
  // build(), naming the key; the boundaries 0 and 1 are accepted.
  struct Input {
    const char* key;
    void (*set)(ExperimentConfig&, double);
    std::vector<double> bad;
    std::vector<double> good;
  };
  const std::vector<Input> inputs = {
      // At 2 the leader would be paid twice the epoch's fees; below 0 the
      // share would silently count as 0.
      {"leader_fee_fraction",
       [](ExperimentConfig& c, double v) { c.params.leader_fee_fraction = v; },
       {-0.1, 1.5, 2, NAN},
       {0, 1}},
      // The tie-break draw would silently treat 7 as 1.
      {"adversary_gamma", [](ExperimentConfig& c, double v) { c.adversary.gamma = v; },
       {-0.5, 7, NAN},
       {0, 1}},
      {"drain_time", [](ExperimentConfig& c, double v) { c.drain_time = v; }, {-1, NAN}, {0, 1}},
  };
  for (const Input& in : inputs) {
    for (double v : in.bad) {
      ExperimentConfig cfg = small_ng();
      in.set(cfg, v);
      try {
        (void)build_shared_workload(cfg);
        ADD_FAILURE() << in.key << " = " << v << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(in.key), std::string::npos) << e.what();
      }
      Experiment exp(cfg);
      EXPECT_THROW(exp.build(), std::invalid_argument) << in.key << " = " << v;
    }
    for (double v : in.good) {
      ExperimentConfig cfg = small_ng();
      in.set(cfg, v);
      EXPECT_NO_THROW((void)build_shared_workload(cfg)) << in.key << " = " << v;
      Experiment exp(cfg);
      EXPECT_NO_THROW(exp.build()) << in.key << " = " << v;
    }
  }
}

}  // namespace
}  // namespace bng::sim
