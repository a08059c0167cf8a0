#include "sim/mining_scheduler.hpp"

#include <gtest/gtest.h>

#include "../support/harness.hpp"
#include "bitcoin/bitcoin_node.hpp"
#include "common/stats.hpp"
#include "sim/miner_distribution.hpp"

namespace bng::sim {
namespace {

using bng::testing::MiniNet;

chain::Params btc_params() {
  auto p = chain::Params::bitcoin();
  p.max_block_size = 3000;
  return p;
}

/// Scheduler fixture over a mininet of bitcoin nodes.
struct SchedulerFixture {
  explicit SchedulerFixture(std::uint32_t n, std::vector<double> powers,
                            Seconds interval = 10.0)
      : net(n, btc_params()) {
    std::vector<protocol::BaseNode*> miners;
    for (std::uint32_t i = 0; i < n; ++i) miners.push_back(&net.node(i));
    scheduler = std::make_unique<MiningScheduler>(net.queue(), miners, std::move(powers),
                                                  interval, Rng(99));
  }
  MiniNet<bitcoin::BitcoinNode> net;
  std::unique_ptr<MiningScheduler> scheduler;
};

TEST(MiningScheduler, GeneratesAtTargetRate) {
  SchedulerFixture f(4, uniform_powers(4), 10.0);
  f.scheduler->start();
  f.net.queue().run_until(10000.0);
  f.scheduler->stop();
  // ~1000 blocks expected; Poisson sd ~ 32.
  EXPECT_NEAR(static_cast<double>(f.scheduler->wins()), 1000.0, 150.0);
}

TEST(MiningScheduler, WinsProportionalToPower) {
  SchedulerFixture f(3, {0.6, 0.3, 0.1}, 1.0);
  std::vector<int> wins(3, 0);
  f.scheduler->on_win = [&](std::uint32_t miner, Seconds) { ++wins[miner]; };
  f.scheduler->start();
  f.net.queue().run_until(5000.0);
  f.scheduler->stop();
  const double total = wins[0] + wins[1] + wins[2];
  ASSERT_GT(total, 0);
  EXPECT_NEAR(wins[0] / total, 0.6, 0.05);
  EXPECT_NEAR(wins[1] / total, 0.3, 0.05);
  EXPECT_NEAR(wins[2] / total, 0.1, 0.03);
}

TEST(MiningScheduler, InterArrivalTimesExponential) {
  SchedulerFixture f(2, uniform_powers(2), 5.0);
  std::vector<double> gaps;
  double last = 0;
  f.scheduler->on_win = [&](std::uint32_t, Seconds at) {
    gaps.push_back(at - last);
    last = at;
  };
  f.scheduler->start();
  f.net.queue().run_until(20000.0);
  f.scheduler->stop();
  ASSERT_GT(gaps.size(), 1000u);
  // Mean ≈ 5; coefficient of variation ≈ 1 for an exponential.
  double m = mean(gaps);
  double sd = stddev(gaps);
  EXPECT_NEAR(m, 5.0, 0.5);
  EXPECT_NEAR(sd / m, 1.0, 0.1);
}

TEST(MiningScheduler, StopHaltsGeneration) {
  SchedulerFixture f(2, uniform_powers(2), 1.0);
  f.scheduler->start();
  f.net.queue().run_until(100.0);
  f.scheduler->stop();
  auto wins_at_stop = f.scheduler->wins();
  f.net.queue().run_until(200.0);
  EXPECT_EQ(f.scheduler->wins(), wins_at_stop);
}

TEST(MiningScheduler, PowerChangeShiftsAssignment) {
  SchedulerFixture f(2, {0.5, 0.5}, 1.0);
  std::vector<int> wins(2, 0);
  f.scheduler->on_win = [&](std::uint32_t miner, Seconds) { ++wins[miner]; };
  f.scheduler->start();
  f.net.queue().run_until(1000.0);
  f.scheduler->set_power(1, 0.0);  // miner 1 powers off
  wins = {0, 0};
  f.net.queue().run_until(2000.0);
  f.scheduler->stop();
  EXPECT_GT(wins[0], 0);
  EXPECT_EQ(wins[1], 0);
}

TEST(MiningScheduler, DifficultyModeSlowsAfterPowerDrop) {
  // Paper §5.2: difficulty tuned for high power makes blocks crawl once
  // power leaves, until the next retarget.
  SchedulerFixture f(2, {0.5, 0.5}, 10.0);
  f.scheduler->enable_difficulty(chain::RetargetRule{100, 10.0, 4.0});
  f.scheduler->start();
  f.net.queue().run_until(1000.0);
  const double interval_before = f.scheduler->current_mean_interval();
  f.scheduler->set_power(0, 0.05);  // 45% of total power vanishes
  const double interval_after = f.scheduler->current_mean_interval();
  EXPECT_NEAR(interval_after / interval_before, 1.0 / 0.55, 0.01);
  f.scheduler->stop();
}

TEST(MiningScheduler, DifficultyRetargetRestoresRate) {
  SchedulerFixture f(2, {0.5, 0.5}, 5.0);
  f.scheduler->enable_difficulty(chain::RetargetRule{50, 5.0, 4.0});
  f.scheduler->start();
  f.net.queue().run_until(500.0);
  f.scheduler->set_power(0, 0.1);
  // Run long enough for several retargets to adapt to the new hash rate.
  f.net.queue().run_until(5000.0);
  EXPECT_NEAR(f.scheduler->current_mean_interval(), 5.0, 1.5);
  f.scheduler->stop();
}

TEST(MiningScheduler, RejectsBadConfig) {
  MiniNet<bitcoin::BitcoinNode> net(2, btc_params());
  std::vector<protocol::BaseNode*> miners{&net.node(0), &net.node(1)};
  EXPECT_THROW(MiningScheduler(net.queue(), miners, {0.5}, 10.0, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(MiningScheduler(net.queue(), miners, {0.5, 0.5}, 0.0, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(MiningScheduler(net.queue(), miners, {0.0, 0.0}, 10.0, Rng(1)),
               std::invalid_argument);
  // A positive total does not excuse a negative share.
  EXPECT_THROW(MiningScheduler(net.queue(), miners, {1.5, -0.5}, 10.0, Rng(1)),
               std::invalid_argument);
}

TEST(MiningScheduler, WinnersActuallyMine) {
  SchedulerFixture f(3, uniform_powers(3), 2.0);
  f.scheduler->start();
  f.net.queue().run_until(100.0);
  f.scheduler->stop();
  f.net.settle(20);
  std::uint64_t mined = 0;
  for (std::uint32_t i = 0; i < 3; ++i) mined += f.net.node(i).blocks_mined();
  EXPECT_EQ(mined, f.scheduler->wins());
  EXPECT_GT(f.net.node(0).tree().best().pow_height, 0u);
}

}  // namespace
}  // namespace bng::sim
