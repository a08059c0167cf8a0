// The declarative adversary & fault layer, end-to-end through Experiment:
// the selfish-mining profitability threshold on Bitcoin and NG key blocks
// (the paper's ~25% bound, §2), the full equivocation -> fraud proof ->
// poison -> revenue-revocation pipeline (§4.5), microblock withholding, and
// scheduled partition / eclipse faults.
#include <gtest/gtest.h>

#include "bitcoin/selfish_miner.hpp"
#include "chain/utxo.hpp"
#include "ghost/ghost_node.hpp"
#include "metrics/metrics.hpp"
#include "ng/malicious_leader.hpp"
#include "ng/ng_node.hpp"
#include "sim/experiment.hpp"

namespace bng {
namespace {

sim::ExperimentConfig selfish_config(chain::Protocol proto, double alpha,
                                     std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  if (proto == chain::Protocol::kBitcoinNG) {
    cfg.params = chain::Params::bitcoin_ng();
    cfg.params.block_interval = 20;
    cfg.params.microblock_interval = 10;
    cfg.params.max_microblock_size = 4000;
    cfg.target_blocks = 600;  // microblocks; ~300 key blocks at this cadence
  } else {
    cfg.params = chain::Params::bitcoin();
    cfg.params.protocol = proto;
    cfg.params.block_interval = 10;
    cfg.target_blocks = 600;
  }
  cfg.params.max_block_size = 4000;
  cfg.num_nodes = 40;
  cfg.drain_time = 60;
  cfg.seed = seed;
  cfg.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  cfg.adversary.power_share = alpha;
  cfg.adversary.gamma = 0.5;
  return cfg;
}

/// Mean SM1 revenue share over a few seeds (smooths race luck).
double mean_revenue(chain::Protocol proto, double alpha) {
  double sum = 0;
  constexpr int kSeeds = 4;
  for (int s = 0; s < kSeeds; ++s) {
    sim::Experiment exp(selfish_config(proto, alpha, 1000 + s));
    exp.run();
    sum += metrics::attacker_report(exp, 0).revenue_share;
  }
  return sum / kSeeds;
}

TEST(SelfishThreshold, BitcoinBelowAndAboveTheBound) {
  // gamma ~= 0.5 -> profitability threshold ~= 1/4 (§2): at alpha = 0.15
  // selfish mining must not pay, at alpha = 0.33 it must.
  EXPECT_LT(mean_revenue(chain::Protocol::kBitcoin, 0.15), 0.15);
  EXPECT_GT(mean_revenue(chain::Protocol::kBitcoin, 0.33), 0.33);
}

TEST(SelfishThreshold, NgKeyBlocksBelowAndAboveTheBound) {
  // The same bound holds on NG's key-block plane — which is exactly why the
  // paper refuses to give microblocks chain weight (§5.1).
  EXPECT_LT(mean_revenue(chain::Protocol::kBitcoinNG, 0.15), 0.15);
  EXPECT_GT(mean_revenue(chain::Protocol::kBitcoinNG, 0.33), 0.33);
}

TEST(StubbornThreshold, LeadStubbornBelowAndAboveTheBound) {
  // Lead-stubborn mining (WithholdingStrategy::Mode::kLeadStubborn) refuses
  // SM1's safe lead-1 cash-out and keeps racing. The profitability threshold
  // stays in the same regime: clearly unprofitable at alpha = 0.15, clearly
  // profitable at alpha = 0.33 with gamma ~= 0.5.
  auto mean_stubborn = [](double alpha) {
    double sum = 0;
    constexpr int kSeeds = 4;
    for (int s = 0; s < kSeeds; ++s) {
      auto cfg = selfish_config(chain::Protocol::kBitcoin, alpha, 2000 + s);
      cfg.adversary.kind = sim::AdversarySpec::Kind::kStubborn;
      sim::Experiment exp(cfg);
      exp.run();
      sum += metrics::attacker_report(exp, 0).revenue_share;
    }
    return sum / kSeeds;
  };
  EXPECT_LT(mean_stubborn(0.15), 0.15);
  EXPECT_GT(mean_stubborn(0.33), 0.33);
}

TEST(SelfishThreshold, GammaZeroNeverPaysAtAlphaThird) {
  // With gamma = 0 (honest nodes never adopt the attacker's matching block)
  // the SM1 threshold rises to ~1/3: alpha = 0.30 must stay unprofitable.
  auto cfg = selfish_config(chain::Protocol::kBitcoin, 0.30, 77);
  cfg.adversary.gamma = 0.0;
  sim::Experiment exp(cfg);
  exp.run();
  EXPECT_LT(metrics::attacker_report(exp, 0).revenue_share, 0.30);
}

TEST(Adversary, GhostSelfishMinerEngagesTheStrategy) {
  auto cfg = selfish_config(chain::Protocol::kGhost, 0.30, 9);
  cfg.target_blocks = 150;
  sim::Experiment exp(cfg);
  exp.run();
  const auto& attacker = static_cast<const ghost::SelfishGhostMiner&>(*exp.nodes()[0]);
  EXPECT_GT(attacker.blocks_published(), 0u);
  EXPECT_GT(metrics::attacker_report(exp, 0).revenue_share, 0.0);
}

TEST(Adversary, NgSelfishWithholdsTheWholeEpochIncludingMicroblocks) {
  // Regression for the relay/registration ordering: accept_block consults
  // should_relay before after_accept registers an own private-chain
  // microblock, so without the pre-registration suppress rule the micro is
  // announced and honest peers orphan-chase the withheld key block out of
  // the attacker. Nothing of the private epoch may leak.
  auto cfg = selfish_config(chain::Protocol::kBitcoinNG, 0.30, 3);
  cfg.num_nodes = 8;
  sim::Experiment exp(cfg);
  exp.build();
  auto& attacker = static_cast<ng::SelfishNgMiner&>(*exp.nodes()[0]);
  attacker.on_mining_win(1.0);  // withheld key block; leader on own view
  exp.queue().run_until(60.0);  // several microblock intervals
  EXPECT_GT(attacker.withheld(), 1u);  // key block + private microblocks
  EXPECT_EQ(attacker.blocks_published(), 0u);
  for (const auto& node : exp.nodes()) {
    if (node->id() == 0) continue;
    EXPECT_EQ(node->tree().size(), 1u)
        << "private epoch leaked to node " << node->id();
  }
}

TEST(Adversary, EquivocatingLeaderIsPoisonedAndLosesRevenueInLedger) {
  // Acceptance path for §4.5: an NG simulation with an equivocating leader
  // must produce at least one poison transaction that revokes the leader's
  // revenue in the final ledger.
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 15;
  cfg.params.microblock_interval = 3;
  cfg.params.max_microblock_size = 4000;
  cfg.params.max_block_size = 4000;
  cfg.num_nodes = 24;
  cfg.min_degree = 8;
  cfg.target_blocks = 150;
  cfg.drain_time = 60;
  cfg.seed = 5;
  cfg.adversary.kind = sim::AdversarySpec::Kind::kEquivocate;
  cfg.adversary.power_share = 0.30;
  cfg.adversary.equivocate_every = 1;
  sim::Experiment exp(cfg);
  exp.run();

  const auto& leader = static_cast<const ng::MaliciousLeader&>(*exp.nodes()[0]);
  ASSERT_GT(leader.equivocations(), 0u);
  ASSERT_FALSE(exp.trace().frauds().empty());

  // Replay the eventual main chain through the ledger.
  const auto& g = exp.global_tree();
  chain::Ledger ledger(cfg.params);
  std::uint64_t poisons = 0;
  std::uint32_t attacker_keys = 0;
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    const auto& block = *g.facts(id).block;
    if (id != g.genesis() &&
        block.type() == chain::BlockType::kKey && block.miner() == 0)
      ++attacker_keys;
    for (const auto& tx : block.txs())
      if (tx->poison) ++poisons;
    if (id == g.genesis()) {
      ASSERT_TRUE(ledger.apply_block(block).ok);
      continue;
    }
    auto r = ledger.apply_block(block);
    ASSERT_TRUE(r.ok) << r.error;
  }
  EXPECT_GE(poisons, 1u);
  ASSERT_GT(attacker_keys, 0u);

  // Revocation: at least one attacker epoch's subsidy is gone, so its final
  // balance is strictly below subsidy x (key blocks it kept on the chain).
  // (Fee shares are orders of magnitude below the subsidy at this scale.)
  const Amount balance = ledger.total_balance(leader.reward_address());
  EXPECT_LT(balance, static_cast<Amount>(attacker_keys) * cfg.params.block_subsidy);
}

TEST(Adversary, WithholdingLeaderStarvesTheTransactionPlane) {
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 20;
  cfg.params.microblock_interval = 2;
  cfg.params.max_microblock_size = 4000;
  cfg.num_nodes = 16;
  cfg.target_blocks = 80;
  cfg.drain_time = 30;
  cfg.seed = 11;
  cfg.adversary.kind = sim::AdversarySpec::Kind::kWithholdMicro;
  cfg.adversary.power_share = 0.40;
  sim::Experiment exp(cfg);
  exp.run();

  // The attacker led epochs whose microblocks were never produced...
  const auto& attacker = static_cast<const ng::MaliciousLeader&>(*exp.nodes()[0]);
  ASSERT_GT(attacker.microblocks_withheld(), 0u);
  // ...and no honest node ever saw an attacker microblock.
  for (const auto& node : exp.nodes()) {
    if (node->id() == 0) continue;
    const auto& t = node->tree();
    for (const BlockId id : t.accepted()) {
      const auto& b = *t.facts(id).block;
      EXPECT_FALSE(b.type() == chain::BlockType::kMicro && b.miner() == 0)
          << "withheld microblock leaked to node " << node->id();
    }
  }
}

TEST(Faults, PartitionRaisesForkPressure) {
  auto base = [](std::uint64_t seed) {
    sim::ExperimentConfig cfg;
    cfg.params = chain::Params::bitcoin();
    cfg.params.block_interval = 10;
    cfg.params.max_block_size = 4000;
    cfg.num_nodes = 30;
    cfg.target_blocks = 40;
    cfg.drain_time = 60;
    cfg.seed = seed;
    return cfg;
  };
  auto forks = [](sim::ExperimentConfig cfg) {
    sim::Experiment exp(std::move(cfg));
    exp.run();
    const auto m = metrics::compute_metrics(exp);
    return m.total_pow_blocks - m.main_chain_pow_blocks;
  };
  auto cut = base(21);
  net::FaultPlan::Partition p;
  p.at = 60;
  p.heal_at = 240;  // ~18 block intervals of independent mining
  for (NodeId v = 0; v < 15; ++v) p.group.push_back(v);
  cut.faults.partitions.push_back(std::move(p));
  EXPECT_GT(forks(std::move(cut)), forks(base(21)));
}

TEST(Faults, EclipsedLargestMinerLosesRevenue) {
  auto run = [](bool eclipse) {
    sim::ExperimentConfig cfg;
    cfg.params = chain::Params::bitcoin();
    cfg.params.block_interval = 10;
    cfg.params.max_block_size = 4000;
    cfg.num_nodes = 30;
    cfg.target_blocks = 40;
    cfg.drain_time = 60;
    cfg.seed = 23;
    if (eclipse) cfg.faults.eclipses.push_back(net::FaultPlan::Eclipse{30, 330, 0});
    sim::Experiment exp(std::move(cfg));
    exp.run();
    return metrics::attacker_report(exp, 0);
  };
  const auto dark = run(true);
  const auto lit = run(false);
  // Node 0 is the largest miner of the exponential population; eclipsed for
  // most of the run, its main-chain share collapses while its fair share is
  // unchanged.
  EXPECT_DOUBLE_EQ(dark.fair_share, lit.fair_share);
  EXPECT_LT(dark.revenue_share, 0.5 * lit.revenue_share);
}

TEST(Adversary, SpecValidation) {
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin();
  cfg.num_nodes = 4;
  cfg.target_blocks = 1;
  cfg.adversary.kind = sim::AdversarySpec::Kind::kEquivocate;  // NG-only
  sim::Experiment exp(cfg);
  EXPECT_THROW(exp.build(), std::invalid_argument);

  sim::ExperimentConfig cfg2;
  cfg2.num_nodes = 4;
  cfg2.target_blocks = 1;
  cfg2.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  cfg2.adversary.node = 99;
  sim::Experiment exp2(cfg2);
  EXPECT_THROW(exp2.build(), std::invalid_argument);
}

}  // namespace
}  // namespace bng
