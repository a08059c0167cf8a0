#include "bitcoin/selfish_miner.hpp"

#include <gtest/gtest.h>

#include "../support/harness.hpp"
#include "sim/experiment.hpp"

namespace bng::bitcoin {
namespace {

chain::Params btc_params() {
  auto p = chain::Params::bitcoin();
  p.max_block_size = 4000;
  return p;
}

/// Mixed population: node 0 is selfish, the rest honest.
struct MixedNet {
  explicit MixedNet(std::uint32_t n, Seconds latency = 0.01)
      : rng(777),
        topology(net::Topology::complete(n)),
        network(queue, topology, net::LatencyModel::constant(latency),
                net::LinkParams{10e6, 40}, rng),
        genesis(chain::make_genesis(2000, kCoin)),
        trace(genesis),
        pool({genesis->txs()[0]->id(), kCoin - 1000, 1000, 120, 0}, 2000) {
    for (NodeId i = 0; i < n; ++i) {
      protocol::NodeConfig cfg;
      cfg.params = btc_params();
      cfg.workload = &pool;
      if (i == 0)
        nodes.push_back(std::make_unique<SelfishMiner>(i, network, genesis, cfg,
                                                       rng.fork(i), &trace));
      else
        nodes.push_back(std::make_unique<BitcoinNode>(i, network, genesis, cfg,
                                                      rng.fork(i), &trace));
      network.attach(i, nodes.back().get());
    }
  }

  SelfishMiner& attacker() { return static_cast<SelfishMiner&>(*nodes[0]); }
  void settle(Seconds t = 5.0) { queue.run_until(queue.now() + t); }

  net::EventQueue queue;
  Rng rng;
  net::Topology topology;
  net::Network network;
  chain::BlockPtr genesis;
  sim::TraceRecorder trace;
  protocol::SyntheticWorkload pool;
  std::vector<std::unique_ptr<protocol::BaseNode>> nodes;
};

TEST(SelfishMiner, WithholdsOwnBlocks) {
  MixedNet net(4);
  net.attacker().on_mining_win(1.0);
  net.settle();
  EXPECT_EQ(net.attacker().withheld(), 1u);
  // Honest nodes saw nothing.
  for (NodeId i = 1; i < 4; ++i) EXPECT_EQ(net.nodes[i]->tree().size(), 1u);
}

TEST(SelfishMiner, PublishesAllWhenCaughtUp) {
  MixedNet net(4);
  net.attacker().on_mining_win(1.0);  // withheld, lead 1
  net.settle();
  net.nodes[1]->on_mining_win(1.0);  // honest block: lead becomes 0
  net.settle();
  // SM1: attacker reveals; everyone now knows both branches.
  EXPECT_EQ(net.attacker().withheld(), 0u);
  EXPECT_EQ(net.attacker().blocks_published(), 1u);
  for (NodeId i = 1; i < 4; ++i) EXPECT_EQ(net.nodes[i]->tree().size(), 3u);
}

TEST(SelfishMiner, OverridesWithLeadOfTwo) {
  MixedNet net(4);
  net.attacker().on_mining_win(1.0);
  net.attacker().on_mining_win(1.0);  // lead 2, both withheld
  net.settle();
  EXPECT_EQ(net.attacker().withheld(), 2u);
  net.nodes[1]->on_mining_win(1.0);  // honest: lead 1 -> attacker reveals all
  net.settle();
  EXPECT_EQ(net.attacker().withheld(), 0u);
  // Attacker's 2-block chain wins everywhere; honest block orphaned.
  for (NodeId i = 1; i < 4; ++i) {
    const auto& t = net.nodes[i]->tree();
    EXPECT_EQ(t.best().chain_work, 2.0);
    EXPECT_EQ(t.best().block->miner(), 0u);
  }
}

TEST(SelfishMiner, MatchesWithLongLead) {
  MixedNet net(4);
  for (int i = 0; i < 4; ++i) net.attacker().on_mining_win(1.0);  // lead 4
  net.settle();
  net.nodes[1]->on_mining_win(1.0);  // honest finds height-1 block
  net.settle();
  // Attacker publishes only its height-1 block to match, keeping 3 private.
  EXPECT_EQ(net.attacker().withheld(), 3u);
  EXPECT_EQ(net.attacker().blocks_published(), 1u);
}

TEST(SelfishMiner, RacesWhenCaughtUpAndFollowsResolution) {
  MixedNet net(4, /*latency=*/1.0);
  net.attacker().on_mining_win(1.0);  // withheld, lead 1
  net.nodes[1]->on_mining_win(1.0);   // honest catch-up -> attacker reveals, race
  net.settle(10);
  EXPECT_EQ(net.attacker().withheld(), 0u);
  EXPECT_EQ(net.attacker().blocks_published(), 1u);
  // Honest extension resolves the race; the attacker follows the winner.
  net.nodes[2]->on_mining_win(1.0);
  net.settle(10);
  EXPECT_EQ(net.attacker().tree().best().chain_work, 2.0);
}

TEST(SelfishMiner, FollowsPublicChainAfterFallingBehind) {
  // The attacker goes deaf (offline) while holding a private block; the
  // honest network gets two blocks ahead. On rejoin the attacker processes
  // the catch-up blocks one by one: at the transient tie it reveals its
  // (doomed) block, then adopts the heavier public chain. Either way, no
  // private blocks remain and it mines on the public tip.
  MixedNet net(4);
  net.attacker().on_mining_win(1.0);  // withheld, lead 1
  net.network.set_offline(0, true);
  net.nodes[1]->on_mining_win(1.0);
  net.settle(10);
  net.nodes[2]->on_mining_win(1.0);
  net.settle(10);
  net.network.set_offline(0, false);
  net.nodes[3]->on_mining_win(1.0);  // fresh inv lets node 0 orphan-chase
  net.settle(20);
  EXPECT_EQ(net.attacker().withheld(), 0u);
  EXPECT_GE(net.attacker().tree().best().chain_work, 3.0);
  EXPECT_NE(net.attacker().tree().best().block->miner(), 0u);
}

TEST(SelfishMiner, ExperimentFactoryIntegration) {
  // Run a full experiment with one selfish miner holding 40% of the power:
  // above the 1/3 threshold SM1 profits for ANY gamma, so even with network
  // friction its main-chain share must exceed its power share.
  sim::ExperimentConfig cfg;
  cfg.params = btc_params();
  cfg.params.block_interval = 10;
  cfg.latency = net::LatencyModel::constant(0.05);
  cfg.num_nodes = 30;
  cfg.target_blocks = 250;
  cfg.drain_time = 60;
  cfg.seed = 1234;
  const double alpha = 0.40;
  std::vector<double> powers(cfg.num_nodes, (1.0 - alpha) / (cfg.num_nodes - 1));
  powers[0] = alpha;
  cfg.custom_powers = powers;
  cfg.node_factory = [](NodeId id, net::Network& net, chain::BlockPtr genesis,
                        const protocol::NodeConfig& ncfg, Rng rng,
                        protocol::IBlockObserver* obs)
      -> std::unique_ptr<protocol::BaseNode> {
    if (id != 0) return nullptr;
    return std::make_unique<SelfishMiner>(id, net, std::move(genesis), ncfg, rng, obs);
  };
  sim::Experiment exp(cfg);
  exp.run();
  // Force any remaining private blocks into the open for final accounting.
  const auto& g = exp.global_tree();
  std::uint32_t attacker_main = 0, total_main = 0;
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    if (id == g.genesis()) continue;
    ++total_main;
    if (g.facts(id).block->miner() == 0) ++attacker_main;
  }
  ASSERT_GT(total_main, 100u);
  const double revenue_share = static_cast<double>(attacker_main) / total_main;
  EXPECT_GT(revenue_share, alpha + 0.02)
      << "selfish mining at alpha=0.30 must beat honest share";
}

TEST(SelfishMiner, SmallMinerGainsNothing) {
  // At alpha = 0.1, well below the threshold, selfish mining must not pay.
  sim::ExperimentConfig cfg;
  cfg.params = btc_params();
  cfg.params.block_interval = 10;
  cfg.num_nodes = 30;
  cfg.target_blocks = 250;
  cfg.drain_time = 60;
  cfg.seed = 4321;
  const double alpha = 0.10;
  std::vector<double> powers(cfg.num_nodes, (1.0 - alpha) / (cfg.num_nodes - 1));
  powers[0] = alpha;
  cfg.custom_powers = powers;
  cfg.node_factory = [](NodeId id, net::Network& net, chain::BlockPtr genesis,
                        const protocol::NodeConfig& ncfg, Rng rng,
                        protocol::IBlockObserver* obs)
      -> std::unique_ptr<protocol::BaseNode> {
    if (id != 0) return nullptr;
    return std::make_unique<SelfishMiner>(id, net, std::move(genesis), ncfg, rng, obs);
  };
  sim::Experiment exp(cfg);
  exp.run();
  const auto& g = exp.global_tree();
  std::uint32_t attacker_main = 0, total_main = 0;
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    if (id == g.genesis()) continue;
    ++total_main;
    if (g.facts(id).block->miner() == 0) ++attacker_main;
  }
  const double revenue_share = static_cast<double>(attacker_main) / total_main;
  EXPECT_LT(revenue_share, alpha + 0.03);
}

}  // namespace
}  // namespace bng::bitcoin
