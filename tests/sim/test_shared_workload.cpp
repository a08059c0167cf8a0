// Shared synthetic workload: one immutable tx pool across experiments
// (ROADMAP "synthetic-workload memory") without cross-talk.
#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "runner/digest.hpp"
#include "sim/experiment.hpp"
#include "sim/trace.hpp"

namespace bng::sim {
namespace {

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.block_interval = 10.0;
  cfg.params.max_block_size = 4000;
  cfg.num_nodes = 12;
  cfg.target_blocks = 3;
  cfg.drain_time = 20;
  cfg.seed = seed;
  return cfg;
}

/// The run's observable output: the generated-block trace.
std::vector<std::pair<Hash256, double>> trace_of(const Experiment& exp) {
  std::vector<std::pair<Hash256, double>> out;
  for (const auto& g : exp.trace().generated()) out.emplace_back(g.block->id(), g.at);
  return out;
}

TEST(SharedWorkload, MatchesOwnedWorkload) {
  auto pool = build_shared_workload(small_config(7));

  ExperimentConfig owned_cfg = small_config(7);
  Experiment owned(owned_cfg);
  owned.run();

  ExperimentConfig shared_cfg = small_config(7);
  shared_cfg.shared_workload = pool;
  Experiment shared(shared_cfg);
  shared.run();

  // Same genesis, same pool contents, same simulation outcome.
  EXPECT_EQ(owned.genesis()->id(), shared.genesis()->id());
  ASSERT_EQ(owned.workload().txs.size(), shared.workload().txs.size());
  EXPECT_EQ(owned.workload().txs[0]->id(), shared.workload().txs[0]->id());
  EXPECT_EQ(trace_of(owned), trace_of(shared));
}

TEST(SharedWorkload, NoCrossTalkBetweenExperiments) {
  auto pool = build_shared_workload(small_config(7));
  const std::size_t pool_txs = pool->workload.txs.size();
  const Hash256 first_id = pool->workload.txs[0]->id();
  const Hash256 last_id = pool->workload.txs.back()->id();

  // Baseline: run seed 7 alone off the shared pool.
  std::vector<std::pair<Hash256, double>> baseline;
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    baseline = trace_of(exp);
  }

  // A different seed runs off the same pool (different schedule, different
  // blocks)...
  {
    ExperimentConfig cfg = small_config(8);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_NE(trace_of(exp), baseline);
  }

  // ...and must not have perturbed the pool or later runs: seed 7 again
  // reproduces the baseline exactly, and the pool is unchanged.
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_EQ(trace_of(exp), baseline);
  }
  EXPECT_EQ(pool->workload.txs.size(), pool_txs);
  EXPECT_EQ(pool->workload.txs[0]->id(), first_id);
  EXPECT_EQ(pool->workload.txs.back()->id(), last_id);
}

TEST(SharedWorkload, ExperimentsDropTheirReference) {
  auto pool = build_shared_workload(small_config(7));
  {
    ExperimentConfig cfg = small_config(7);
    cfg.shared_workload = pool;
    Experiment exp(cfg);
    exp.run();
    EXPECT_GT(pool.use_count(), 1);
  }
  // No leaked references once the experiment is gone: a sweep can free the
  // pool after its point's last seed.
  EXPECT_EQ(pool.use_count(), 1);
}

TEST(SharedWorkload, BuildIsSeedIndependent) {
  auto a = build_shared_workload(small_config(1));
  auto b = build_shared_workload(small_config(999));
  ASSERT_EQ(a->workload.txs.size(), b->workload.txs.size());
  EXPECT_EQ(a->genesis->id(), b->genesis->id());
  EXPECT_EQ(a->workload.txs[0]->id(), b->workload.txs[0]->id());
  EXPECT_EQ(a->workload.tx_wire_size, b->workload.tx_wire_size);
}

TEST(SharedWorkload, Fig7PoolMatchesItsPinnedDigest) {
  // The bitcoin_fig7 perfbench pool (60 kB blocks, 30 blocks, 8,560 txs).
  // The digest was recorded with the portable SHA-256 kernel and the
  // serialize-per-accessor caches; any kernel or serialization change that
  // moves a txid or a size moves it.
  ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.params.max_block_size = 60000;
  cfg.target_blocks = 30;
  cfg.pool_size = 8560;
  const auto pool = build_shared_workload(cfg);
  ASSERT_EQ(pool->workload.txs.size(), 8560u);
  EXPECT_EQ(pool->workload.tx_wire_size, 476u);

  runner::Digest d;
  d.bytes(pool->genesis->id().bytes.data(), 32);
  d.u64(pool->genesis->wire_size());
  for (const auto& tx : pool->workload.txs) {
    d.bytes(tx->id().bytes.data(), 32);
    d.u64(tx->wire_size());
  }
  EXPECT_EQ(d.h, 0x44e3471f18e43e43ull);
}

}  // namespace
}  // namespace bng::sim
