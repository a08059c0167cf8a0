// Adaptive frontier sweeps: the bisection driver must reproduce the dense
// grid's crossover exactly — same frontier artifacts, bit-identical records
// at every evaluated point — while dispatching a fraction of its jobs.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "runner/adaptive.hpp"
#include "runner/cache.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

/// A 9-value refine axis over block size. Propagation delay grows strictly
/// with block size (bandwidth-dominated), so the predicate
/// prop_delay_p50_s > 3 crosses exactly once — the monotone case where the
/// adaptive frontier provably equals the dense grid's.
Scenario adaptive_mini(const std::string& extra_lines = {}) {
  const std::string text =
      "name = adaptive_mini\n"
      "seed_base = 7600\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 8\n" +
      extra_lines +
      "axis.max_block_size = 1000, 2000, 4000, 8000, 16000, 32000, 64000, "
      "128000, 256000\n"
      "refine.axis = max_block_size\n"
      "refine.metric = prop_delay_p50_s\n"
      "refine.threshold = 3\n"
      "refine.coarse = 3\n";
  return load_scenario_string(text, "<test>", RunKnobs{16, 3});
}

AdaptiveOptions adaptive_options(std::uint32_t seeds, std::uint32_t jobs,
                                 bool dense = false) {
  AdaptiveOptions opt;
  opt.sweep.seeds = seeds;
  opt.sweep.jobs = jobs;
  opt.dense = dense;
  return opt;
}

TEST(Adaptive, MatchesDenseOracleWithFewerJobs) {
  const Scenario s = adaptive_mini();
  const AdaptiveResult refined = run_adaptive(s, adaptive_options(2, 2));
  const AdaptiveResult dense = run_adaptive(s, adaptive_options(2, 2, true));

  // The dense run is the oracle: every point evaluated.
  EXPECT_EQ(dense.evaluated.size(), 9u);
  EXPECT_EQ(dense.jobs_dispatched, 18u);
  EXPECT_EQ(refined.dense_points, 9u);
  EXPECT_EQ(refined.dense_jobs, 18u);

  // The refined run evaluated a strict subset (coarse {0,4,8} + bisection)
  // yet emits byte-identical frontier artifacts.
  EXPECT_LT(refined.evaluated.size(), dense.evaluated.size());
  EXPECT_LT(refined.jobs_dispatched, dense.jobs_dispatched);
  EXPECT_EQ(frontier_json(s, refined), frontier_json(s, dense));
  EXPECT_EQ(frontier_csv(refined), frontier_csv(dense));

  ASSERT_EQ(refined.frontier.size(), 1u);
  EXPECT_TRUE(refined.frontier[0].found);
  // The bracket tightened to adjacent grid values around the crossover.
  EXPECT_DOUBLE_EQ(refined.frontier[0].lo_x, 16000.0);
  EXPECT_DOUBLE_EQ(refined.frontier[0].hi_x, 32000.0);

  // Refined points keep their dense-grid job identity: records are
  // bit-identical to the dense run's at the same dense index.
  for (std::size_t k = 0; k < refined.evaluated.size(); ++k) {
    const PointResult& rp = refined.sweep.points[k];
    const PointResult& dp = dense.sweep.points[refined.evaluated[k]];
    ASSERT_EQ(rp.seeds.size(), dp.seeds.size());
    for (std::size_t i = 0; i < rp.seeds.size(); ++i) {
      EXPECT_EQ(rp.seeds[i].seed, dp.seeds[i].seed);
      EXPECT_EQ(rp.seeds[i].digest, dp.seeds[i].digest)
          << "dense index " << refined.evaluated[k] << " ordinal " << i;
    }
  }
}

TEST(Adaptive, EachWaveIsLookedUpInTheCacheBeforeDispatch) {
  // A cold run misses exactly the jobs it dispatches; a warm rerun hits all
  // of them (still counted as dispatched) and reproduces the frontier byte
  // for byte; the dense oracle over the same cache simulates only the
  // points the bisection skipped.
  const Scenario s = adaptive_mini();
  const auto dir = std::filesystem::temp_directory_path() / "bng_cache_adaptive";
  std::filesystem::remove_all(dir);
  RunCache cache(dir.string());
  AdaptiveOptions opt = adaptive_options(2, 2);
  opt.sweep.cache = &cache;

  const AdaptiveResult cold = run_adaptive(s, opt);
  RunCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, cold.jobs_dispatched);
  EXPECT_EQ(c.stores, cold.jobs_dispatched);
  // run_adaptive synced on its way out: nothing is left for another sync.
  ASSERT_NE(c.stores % RunCache::kSyncBatch, 0u);
  cache.sync();
  EXPECT_EQ(cache.counters().fsyncs, c.fsyncs);

  const AdaptiveResult warm = run_adaptive(s, opt);
  EXPECT_EQ(warm.jobs_dispatched, cold.jobs_dispatched);
  EXPECT_EQ(frontier_json(s, warm), frontier_json(s, cold));
  EXPECT_EQ(frontier_csv(warm), frontier_csv(cold));
  c = cache.counters();
  EXPECT_EQ(c.hits, cold.jobs_dispatched);
  EXPECT_EQ(c.misses, cold.jobs_dispatched);

  opt.dense = true;
  const AdaptiveResult dense = run_adaptive(s, opt);
  EXPECT_EQ(frontier_json(s, dense), frontier_json(s, cold));
  const RunCache::Counters after = cache.counters();
  EXPECT_EQ(after.hits - c.hits, cold.jobs_dispatched);
  EXPECT_EQ(after.misses - c.misses, dense.jobs_dispatched - cold.jobs_dispatched);
}

TEST(Adaptive, EveryGroupGetsItsOwnFrontierRow) {
  // A second (non-refine) axis splits the grid into groups; each gets an
  // independent bisection and its own frontier row, in dense group order.
  const Scenario s = adaptive_mini("axis.block_interval = 8, 12\n");
  const AdaptiveResult r = run_adaptive(s, adaptive_options(1, 2));
  EXPECT_EQ(r.dense_points, 18u);
  ASSERT_EQ(r.frontier.size(), 2u);
  EXPECT_EQ(r.frontier[0].group, "block_interval=8");
  EXPECT_EQ(r.frontier[1].group, "block_interval=12");
  for (const FrontierRow& row : r.frontier) {
    EXPECT_TRUE(row.found) << row.group;
    EXPECT_LT(row.lo_x, row.hi_x);
    EXPECT_GE(row.crossover_x, row.lo_x);
    EXPECT_LE(row.crossover_x, row.hi_x);
  }
}

TEST(Adaptive, RequiresARefineSpec) {
  Scenario s = adaptive_mini();
  s.refine.reset();
  EXPECT_THROW(run_adaptive(s, adaptive_options(1, 1)), std::runtime_error);
}

TEST(Adaptive, RefineGrammarRejectsBadSpecs) {
  // refine.* without a metric is unusable.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = nodes\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
  // The refine axis must name an axis defined in the same file.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = gamma\n"
                                    "refine.metric = tx_per_sec\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
  // Unknown refine.* sub-keys are errors, not silent ignores.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = nodes\n"
                                    "refine.metric = tx_per_sec\n"
                                    "refine.bogus = 1\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
}

TEST(Adaptive, UnknownMetricNamesTheMetricInTheError) {
  Scenario s = adaptive_mini();
  s.refine->metric = "no_such_metric";
  try {
    run_adaptive(s, adaptive_options(1, 1));
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_metric"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bng::runner
