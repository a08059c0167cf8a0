// Built-in scenario registrations: the paper's figures (§7-§8) and the
// ablations, expressed as declarative sweeps for the runner engine. The
// ngsim CLI runs these (`ngsim --scenario NAME`).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bitcoin/selfish_miner.hpp"
#include "chain/block_tree.hpp"
#include "common/stats.hpp"
#include "metrics/metrics.hpp"
#include "ng/malicious_leader.hpp"
#include "runner/scenario.hpp"
#include "sim/miner_distribution.hpp"

namespace bng::runner {

namespace {

std::string fmt(const char* pattern, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, pattern, v);
  return buf;
}

Axis protocol_axis(std::vector<chain::Protocol> protocols) {
  Axis axis{"protocol", {}};
  for (chain::Protocol proto : protocols) {
    const char* name = proto == chain::Protocol::kBitcoin ? "bitcoin"
                       : proto == chain::Protocol::kGhost ? "ghost"
                                                          : "ng";
    axis.values.push_back(AxisValue{name, 0, [proto](sim::ExperimentConfig& cfg) {
                                      const auto keep = cfg.params;
                                      cfg.params = proto == chain::Protocol::kBitcoinNG
                                                       ? chain::Params::bitcoin_ng()
                                                       : chain::Params::bitcoin();
                                      cfg.params.protocol = proto;
                                      // Carry the scenario's shared knobs over the preset.
                                      cfg.params.max_block_size = keep.max_block_size;
                                      cfg.params.max_microblock_size = keep.max_microblock_size;
                                    }});
  }
  return axis;
}

sim::ExperimentConfig paper_base(const RunKnobs& knobs) {
  sim::ExperimentConfig cfg;
  cfg.num_nodes = knobs.nodes;
  cfg.tx_size = kTxSize;
  cfg.target_blocks = knobs.blocks;
  return cfg;
}

// --- fig6: miner-population skew --------------------------------------------
// The figure itself is the analytic weekly-rank fit, which needs no
// simulation: bench/fig6_mining_power.cpp prints it. This sweep runs the
// consequence of the skew — fairness/MPU as the population exponent varies
// around the paper's fitted -0.27.
Scenario make_fig6(const RunKnobs& knobs) {
  Scenario s;
  s.name = "fig6";
  s.description = "fairness/MPU vs miner-population skew exp(k*rank), paper fit k=-0.27";
  s.seed_base = 600;
  s.base = paper_base(knobs);
  s.base.params = chain::Params::bitcoin();
  s.base.params.block_interval = 10.0;
  s.base.params.max_block_size = 20'000;
  Axis axis{"power_exponent", {}};
  for (double k : {-0.10, -0.20, -0.27, -0.40}) {
    axis.values.push_back(AxisValue{fmt("k=%.2f", k), k, [k](sim::ExperimentConfig& cfg) {
                                      cfg.power_exponent = k;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

// --- fig7: propagation latency vs block size ---------------------------------
Scenario make_fig7(const RunKnobs& knobs) {
  Scenario s;
  s.name = "fig7";
  s.description =
      "block propagation latency vs block size at constant payload load (Bitcoin)";
  s.seed_base = 700;
  s.base = paper_base(knobs);
  s.base.params = chain::Params::bitcoin();
  s.base.target_blocks = std::max(20u, knobs.blocks / 2);
  Axis axis{"block_size", {}};
  for (std::size_t size : {20'000, 40'000, 60'000, 80'000, 100'000}) {
    axis.values.push_back(AxisValue{
        fmt("%.0fB", static_cast<double>(size)), static_cast<double>(size),
        [size](sim::ExperimentConfig& cfg) {
          cfg.params.max_block_size = size;
          // Constant payload load: bigger blocks arrive proportionally rarer.
          cfg.params.block_interval = static_cast<double>(size) / kPayloadBytesPerSecond;
        }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    auto delays = metrics::propagation_delays(exp);
    v.emplace_back("prop_p25_s", percentile(delays, 25));
    v.emplace_back("prop_p50_s", percentile(delays, 50));
    v.emplace_back("prop_p75_s", percentile(delays, 75));
  };
  return s;
}

// --- fig7_10k: propagation latency at 10k+ nodes on a clustered overlay ------
// The scaling companion to fig7: the same latency-vs-size question asked at
// internet scale. The overlay is Topology::clustered (regions joined by
// trunks, short intra-cluster / long cross-cluster latencies) so the answer
// is not distorted by a flat 10k-node uniform graph's 2-hop diameter.
Scenario make_fig7_10k(const RunKnobs& knobs) {
  Scenario s;
  s.name = "fig7_10k";
  s.description =
      "fig7 propagation sweep at >=10k nodes on a clustered internet-like overlay";
  s.seed_base = 710;
  s.base = paper_base(knobs);
  s.base.params = chain::Params::bitcoin();
  s.base.num_nodes = std::max(knobs.nodes, 10'000u);
  s.base.clusters = std::max(8u, s.base.num_nodes / 1000);
  s.base.cluster_trunks = 8;
  s.base.target_blocks = std::max(10u, knobs.blocks / 2);
  Axis axis{"block_size", {}};
  for (std::size_t size : {20'000, 60'000, 100'000}) {
    axis.values.push_back(AxisValue{
        fmt("%.0fB", static_cast<double>(size)), static_cast<double>(size),
        [size](sim::ExperimentConfig& cfg) {
          cfg.params.max_block_size = size;
          cfg.params.block_interval = static_cast<double>(size) / kPayloadBytesPerSecond;
        }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    auto delays = metrics::propagation_delays(exp);
    v.emplace_back("prop_p50_s", percentile(delays, 50));
    v.emplace_back("prop_p90_s", percentile(delays, 90));
  };
  return s;
}

// --- fig8a: frequency sweep at constant payload throughput -------------------
Scenario make_fig8a(const RunKnobs& knobs) {
  Scenario s;
  s.name = "fig8a";
  s.description =
      "security metrics vs block frequency at constant payload throughput (1MB/600s)";
  s.seed_base = 8100;
  s.base = paper_base(knobs);
  s.axes.push_back(
      protocol_axis({chain::Protocol::kBitcoin, chain::Protocol::kBitcoinNG}));
  Axis axis{"frequency", {}};
  for (double freq : {0.01, 0.033, 0.1, 0.33, 1.0}) {
    const auto block_size = static_cast<std::size_t>(kPayloadBytesPerSecond / freq);
    axis.values.push_back(AxisValue{
        fmt("%.3f/s", freq), freq, [freq, block_size](sim::ExperimentConfig& cfg) {
          if (cfg.params.protocol == chain::Protocol::kBitcoinNG) {
            // Key blocks stay rare; the microblock plane carries the sweep.
            cfg.params.block_interval = 100.0;
            cfg.params.microblock_interval = 1.0 / freq;
            cfg.params.max_microblock_size = block_size;
          } else {
            cfg.params.block_interval = 1.0 / freq;
            cfg.params.max_block_size = block_size;
          }
        }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

// --- fig8b: block-size sweep at high frequency -------------------------------
Scenario make_fig8b(const RunKnobs& knobs) {
  Scenario s;
  s.name = "fig8b";
  s.description =
      "security metrics vs block size (Bitcoin 1/10s; NG micro 1/10s, key 1/100s)";
  s.seed_base = 8200;
  s.base = paper_base(knobs);
  s.axes.push_back(
      protocol_axis({chain::Protocol::kBitcoin, chain::Protocol::kBitcoinNG}));
  Axis axis{"block_size", {}};
  for (std::size_t size : {1280, 2500, 5000, 10'000, 20'000, 40'000, 80'000}) {
    axis.values.push_back(AxisValue{
        fmt("%.0fB", static_cast<double>(size)), static_cast<double>(size),
        [size](sim::ExperimentConfig& cfg) {
          if (cfg.params.protocol == chain::Protocol::kBitcoinNG) {
            cfg.params.block_interval = 100.0;
            cfg.params.microblock_interval = 10.0;
            cfg.params.max_microblock_size = size;
          } else {
            cfg.params.block_interval = 10.0;
            cfg.params.max_block_size = size;
          }
        }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

// --- ablation: GHOST vs Bitcoin vs NG at high contention ---------------------
Scenario make_ablation_ghost(const RunKnobs& knobs) {
  constexpr double kInterval = 5.0;
  constexpr std::size_t kSize = 20'000;
  Scenario s;
  s.name = "ablation_ghost";
  s.description = "GHOST vs Bitcoin vs NG at a fork-heavy operating point (paper §9)";
  s.seed_base = 8500;
  s.base = paper_base(knobs);
  s.base.params.max_block_size = kSize;
  s.base.params.max_microblock_size = kSize;
  Axis axis = protocol_axis(
      {chain::Protocol::kBitcoin, chain::Protocol::kGhost, chain::Protocol::kBitcoinNG});
  for (AxisValue& v : axis.values) {
    ConfigDelta inner = std::move(v.apply);
    v.apply = [inner](sim::ExperimentConfig& cfg) {
      inner(cfg);
      cfg.params.block_interval =
          cfg.params.protocol == chain::Protocol::kBitcoinNG ? 100.0 : kInterval;
      cfg.params.microblock_interval = kInterval;
    };
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    // GHOST's all-branch relay is only honest if its network bill is shown.
    v.emplace_back("network_mb", exp.network().bytes_sent() / 1e6);
  };
  return s;
}

// --- ablation: NG key-block interval -----------------------------------------
Scenario make_ablation_keyblock(const RunKnobs& knobs) {
  Scenario s;
  s.name = "ablation_keyblock_freq";
  s.description = "NG key-block interval sweep at fixed 10s microblock cadence (§8.1)";
  s.seed_base = 8300;
  s.base = paper_base(knobs);
  s.base.params = chain::Params::bitcoin_ng();
  s.base.params.microblock_interval = 10.0;
  s.base.params.max_microblock_size =
      static_cast<std::size_t>(10.0 * kPayloadBytesPerSecond);
  Axis axis{"key_interval", {}};
  for (double key_interval : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    axis.values.push_back(AxisValue{fmt("%.0fs", key_interval), key_interval,
                                    [key_interval](sim::ExperimentConfig& cfg) {
                                      cfg.params.block_interval = key_interval;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

// --- ablation: 90% mining-power drop (paper §5.2) ----------------------------
Scenario make_ablation_power_drop(const RunKnobs& knobs) {
  Scenario s;
  s.name = "ablation_power_drop";
  s.description =
      "90% hash-power drop after retarget: NG keeps serializing txs (§5.2)";
  s.seed_base = 8400;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 200u);
  s.base.params.block_interval = 30;
  s.base.params.microblock_interval = 5;
  s.base.params.max_block_size = 8000;
  s.base.params.max_microblock_size = 8000;
  s.base.target_blocks = 1'000'000;  // the run hook stops by time, not count
  s.base.retarget = chain::RetargetRule{50, 30.0, 4.0};
  s.axes.push_back(
      protocol_axis({chain::Protocol::kBitcoin, chain::Protocol::kBitcoinNG}));
  // Preserve the preset-independent sizes over the protocol switch.
  for (AxisValue& v : s.axes.back().values) {
    ConfigDelta inner = std::move(v.apply);
    v.apply = [inner](sim::ExperimentConfig& cfg) {
      inner(cfg);
      cfg.params.block_interval = 30;
      cfg.params.microblock_interval = 5;
    };
  }
  s.run = [](sim::Experiment& exp, NamedValues& values) {
    exp.scheduler().start();
    const Seconds phase_len = 1800;
    exp.queue().run_until(phase_len);
    const auto pow_1 = exp.trace().pow_blocks();
    const auto tx_1 = exp.global_tree().best().chain_tx_count;

    // 90% of hash power leaves (paper: miners flee to another chain).
    const auto& powers = exp.powers();
    for (std::uint32_t i = 0; i < exp.config().num_nodes; ++i)
      exp.scheduler().set_power(i, powers[i] * 0.1);

    exp.queue().run_until(2 * phase_len);
    exp.scheduler().stop();
    const auto pow_2 = exp.trace().pow_blocks() - pow_1;
    // A post-drop reorg can land on a best tip carrying fewer cumulative
    // txs than the phase-1 snapshot; clamp instead of wrapping unsigned.
    const auto tip_txs = exp.global_tree().best().chain_tx_count;
    const auto tx_2 = tip_txs > tx_1 ? tip_txs - tx_1 : 0;

    const double mins = phase_len / 60.0;
    values.emplace_back("pow_per_min_before", pow_1 / mins);
    values.emplace_back("txs_per_min_before", static_cast<double>(tx_1) / mins);
    values.emplace_back("pow_per_min_after", pow_2 / mins);
    values.emplace_back("txs_per_min_after", static_cast<double>(tx_2) / mins);
  };
  return s;
}

// --- adversary helpers -------------------------------------------------------

Axis alpha_axis(std::initializer_list<double> alphas) {
  Axis axis{"alpha", {}};
  for (double alpha : alphas) {
    axis.values.push_back(AxisValue{fmt("a=%.2f", alpha), alpha,
                                    [alpha](sim::ExperimentConfig& cfg) {
                                      cfg.adversary.power_share = alpha;
                                    }});
  }
  return axis;
}

Axis gamma_axis(std::initializer_list<double> gammas) {
  Axis axis{"gamma", {}};
  for (double gamma : gammas) {
    axis.values.push_back(AxisValue{fmt("g=%.1f", gamma), gamma,
                                    [gamma](sim::ExperimentConfig& cfg) {
                                      cfg.adversary.gamma = gamma;
                                    }});
  }
  return axis;
}

// --- ablation: selfish mining revenue vs attacker power ----------------------
Scenario make_ablation_selfish(const RunKnobs& knobs) {
  Scenario s;
  s.name = "ablation_selfish_mining";
  s.description = "SM1 revenue share vs attacker power; crossover near 1/4 (§2)";
  s.seed_base = 8600;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 100u);
  s.base.params = chain::Params::bitcoin();
  s.base.params.block_interval = 10;
  s.base.params.max_block_size = 4000;
  s.base.target_blocks = std::max(knobs.blocks * 5, 300u);
  s.base.drain_time = 60;
  s.base.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  s.axes.push_back(alpha_axis({0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("revenue_share", a.revenue_share);
    v.emplace_back("advantage", a.revenue_share - exp.powers()[0]);
    v.emplace_back("branches_abandoned",
                   static_cast<double>(static_cast<const bitcoin::SelfishMiner&>(
                                           *exp.nodes()[0])
                                           .branches_abandoned()));
  };
  return s;
}

// --- selfish_threshold: alpha x gamma x protocol grid ------------------------
Scenario make_selfish_threshold(const RunKnobs& knobs) {
  Scenario s;
  s.name = "selfish_threshold";
  s.description =
      "SM1 revenue share over alpha x gamma x protocol; Bitcoin crossover ~1/4 at "
      "gamma=0.5 (§2)";
  s.seed_base = 8700;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 60u);
  s.base.params.max_block_size = 4000;
  s.base.params.max_microblock_size = 4000;
  s.base.target_blocks = std::max(knobs.blocks * 5, 300u);
  s.base.drain_time = 60;
  s.base.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  Axis proto = protocol_axis(
      {chain::Protocol::kBitcoin, chain::Protocol::kGhost, chain::Protocol::kBitcoinNG});
  for (AxisValue& v : proto.values) {
    ConfigDelta inner = std::move(v.apply);
    v.apply = [inner](sim::ExperimentConfig& cfg) {
      inner(cfg);
      if (cfg.params.protocol == chain::Protocol::kBitcoinNG) {
        // Counted blocks are microblocks; at a 2:1 micro:key cadence the
        // run covers ~target/2 epochs of the key-block plane under attack.
        cfg.params.block_interval = 20.0;
        cfg.params.microblock_interval = 10.0;
      } else {
        cfg.params.block_interval = 10.0;
      }
    };
  }
  s.axes.push_back(std::move(proto));
  s.axes.push_back(gamma_axis({0.0, 0.5, 1.0}));
  s.axes.push_back(alpha_axis({0.15, 0.20, 0.25, 0.30, 0.35}));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("revenue_share", a.revenue_share);
    v.emplace_back("fair_share", a.fair_share);
    v.emplace_back("relative_gain", a.relative_gain);
    v.emplace_back("honest_acceptance", a.honest_acceptance);
  };
  return s;
}

// --- selfish_frontier: alpha crossover surface per gamma x protocol ----------
// The refine-marked companion of selfish_threshold: a fine alpha axis (121
// values, step 0.0025) that the adaptive driver bisects per (protocol, gamma)
// group instead of evaluating densely. `ngsim --scenario selfish_frontier`
// therefore answers "at what alpha does SM1 turn profitable?" with ~1/10 of
// the dense grid's jobs; `--dense` evaluates every point as the oracle.
Scenario make_selfish_frontier(const RunKnobs& knobs) {
  Scenario s;
  s.name = "selfish_frontier";
  s.description =
      "SM1 profitability crossover alpha per gamma x protocol, bisected along a "
      "fine alpha axis (§2)";
  s.seed_base = 9400;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 60u);
  s.base.params.max_block_size = 4000;
  s.base.params.max_microblock_size = 4000;
  s.base.target_blocks = std::max(knobs.blocks * 5, 60u);
  s.base.drain_time = 60;
  s.base.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  Axis proto = protocol_axis({chain::Protocol::kBitcoin, chain::Protocol::kBitcoinNG});
  for (AxisValue& v : proto.values) {
    ConfigDelta inner = std::move(v.apply);
    v.apply = [inner](sim::ExperimentConfig& cfg) {
      inner(cfg);
      if (cfg.params.protocol == chain::Protocol::kBitcoinNG) {
        cfg.params.block_interval = 20.0;
        cfg.params.microblock_interval = 10.0;
      } else {
        cfg.params.block_interval = 10.0;
      }
    };
  }
  s.axes.push_back(std::move(proto));
  s.axes.push_back(gamma_axis({0.0, 0.5, 1.0}));
  // Fine alpha grid: 0.10 .. 0.40 in 0.0025 steps. Labels carry four decimals
  // so neighboring points stay distinct in the artifacts.
  Axis alpha{"alpha", {}};
  for (int i = 0; i <= 120; ++i) {
    const double a = 0.10 + 0.0025 * i;
    alpha.values.push_back(AxisValue{fmt("a=%.4f", a), a,
                                     [a](sim::ExperimentConfig& cfg) {
                                       cfg.adversary.power_share = a;
                                     }});
  }
  s.axes.push_back(std::move(alpha));
  s.refine = RefineSpec{"alpha", "relative_gain", 0.0, 5, 0.0};
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("revenue_share", a.revenue_share);
    v.emplace_back("fair_share", a.fair_share);
    v.emplace_back("relative_gain", a.relative_gain);
    v.emplace_back("honest_acceptance", a.honest_acceptance);
  };
  return s;
}

// --- eclipse_selfish: SM1 withholding + eclipse of honest hubs ---------------
// ROADMAP's named composition ("eclipse-assisted selfish mining"): the
// declarative AdversarySpec and the FaultPlan compose freely, so the selfish
// miner can be paired with an eclipse of the best-connected honest nodes.
// While the hubs are dark the honest network finds and propagates fewer
// competing blocks, which plays like a higher effective gamma: the attack
// pays at an alpha where plain SM1 would not.
Scenario make_eclipse_selfish(const RunKnobs& knobs) {
  Scenario s;
  s.name = "eclipse_selfish";
  s.description =
      "SM1 selfish mining while honest hub nodes are eclipsed; revenue share vs "
      "blackout length";
  s.seed_base = 9300;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 60u);
  s.base.params = chain::Params::bitcoin();
  s.base.params.block_interval = 10;
  s.base.params.max_block_size = 4000;
  s.base.target_blocks = std::max(knobs.blocks * 5, 300u);
  s.base.drain_time = 60;
  s.base.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
  s.base.adversary.power_share = 0.30;
  Axis axis{"eclipse_s", {}};
  for (double dur : {0.0, 600.0, 1800.0}) {
    axis.values.push_back(AxisValue{
        fmt("dark=%.0fs", dur), dur, [dur](sim::ExperimentConfig& cfg) {
          cfg.faults = {};
          if (dur <= 0) return;
          // Nodes 1-3: the first honest ids. Under the adversary's flat
          // honest population they stand in for the hubs the attacker's
          // sybils would surround in a real deployment.
          for (NodeId hub : {1u, 2u, 3u})
            cfg.faults.eclipses.push_back(net::FaultPlan::Eclipse{60.0, 60.0 + dur, hub});
        }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("revenue_share", a.revenue_share);
    v.emplace_back("fair_share", a.fair_share);
    v.emplace_back("relative_gain", a.relative_gain);
  };
  return s;
}

// --- partition_heal: timed split of the overlay ------------------------------
Scenario make_partition_heal(const RunKnobs& knobs) {
  Scenario s;
  s.name = "partition_heal";
  s.description =
      "split half the overlay at t=120s, heal after d; fork pressure and recovery";
  s.seed_base = 8800;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 100u);
  s.base.params = chain::Params::bitcoin();
  s.base.params.block_interval = 10;
  s.base.params.max_block_size = 8000;
  s.base.target_blocks = std::max(knobs.blocks, 60u);
  s.base.drain_time = 120;
  Axis axis{"partition_s", {}};
  for (double dur : {0.0, 60.0, 180.0, 360.0}) {
    axis.values.push_back(AxisValue{
        fmt("cut=%.0fs", dur), dur, [dur](sim::ExperimentConfig& cfg) {
          cfg.faults = {};
          if (dur <= 0) return;
          net::FaultPlan::Partition cut;
          cut.at = 120.0;
          cut.heal_at = 120.0 + dur;
          for (NodeId v = 0; v < cfg.num_nodes / 2; ++v) cut.group.push_back(v);
          cfg.faults.partitions.push_back(std::move(cut));
        }});
  }
  s.axes.push_back(std::move(axis));
  return s;
}

// --- eclipse: isolate the largest miner --------------------------------------
Scenario make_eclipse(const RunKnobs& knobs) {
  Scenario s;
  s.name = "eclipse";
  s.description =
      "eclipse the largest miner at t=60s for d; its revenue share collapses";
  s.seed_base = 8900;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 100u);
  s.base.params = chain::Params::bitcoin();
  s.base.params.block_interval = 10;
  s.base.params.max_block_size = 8000;
  s.base.target_blocks = std::max(knobs.blocks, 60u);
  s.base.drain_time = 60;
  Axis axis{"eclipse_s", {}};
  for (double dur : {0.0, 120.0, 300.0}) {
    axis.values.push_back(AxisValue{
        fmt("dark=%.0fs", dur), dur, [dur](sim::ExperimentConfig& cfg) {
          cfg.faults = {};
          if (dur <= 0) return;
          cfg.faults.eclipses.push_back(net::FaultPlan::Eclipse{60.0, 60.0 + dur, 0});
        }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    // Node 0 is the largest miner of the exponential population.
    const auto a = metrics::attacker_report(exp, 0);
    v.emplace_back("victim_revenue_share", a.revenue_share);
    v.emplace_back("victim_fair_share", a.fair_share);
    v.emplace_back("victim_relative_gain", a.relative_gain);
  };
  return s;
}

// --- ng_poison: equivocating leader -> fraud proofs -> revocation ------------
Scenario make_ng_poison(const RunKnobs& knobs) {
  Scenario s;
  s.name = "ng_poison";
  s.description =
      "NG leader equivocates; honest leaders place poison txs revoking its revenue "
      "(§4.5)";
  s.seed_base = 9100;
  s.base = paper_base(knobs);
  s.base.num_nodes = std::min(knobs.nodes, 40u);
  s.base.min_degree = 8;  // dense gossip: equivocation evidence spreads
  s.base.params = chain::Params::bitcoin_ng();
  s.base.params.block_interval = 15;
  s.base.params.microblock_interval = 3;
  s.base.params.max_microblock_size = 4000;
  s.base.target_blocks = std::max(knobs.blocks * 2, 120u);
  s.base.drain_time = 60;
  s.base.adversary.kind = sim::AdversarySpec::Kind::kEquivocate;
  s.base.adversary.power_share = 0.30;
  s.base.adversary.equivocate_every = 2;
  Axis axis{"equivocate_every", {}};
  for (std::uint32_t k : {1u, 2u, 4u}) {
    axis.values.push_back(AxisValue{fmt("k=%.0f", static_cast<double>(k)),
                                    static_cast<double>(k),
                                    [k](sim::ExperimentConfig& cfg) {
                                      cfg.adversary.equivocate_every = k;
                                    }});
  }
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto& leader = static_cast<const ng::MaliciousLeader&>(
        *exp.nodes()[exp.config().adversary.node]);
    std::uint64_t main_poisons = 0;
    const auto& g = exp.global_tree();
    for (const BlockId id : g.path_from_genesis(g.best_tip()))
      for (const auto& tx : g.facts(id).block->txs())
        if (tx->poison) ++main_poisons;
    v.emplace_back("equivocations", static_cast<double>(leader.equivocations()));
    v.emplace_back("frauds_detected", static_cast<double>(exp.trace().frauds().size()));
    v.emplace_back("main_chain_poisons", static_cast<double>(main_poisons));
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("leader_key_share", a.revenue_share);
  };
  return s;
}

// --- attack_smoke: tiny adversary+fault sweep for CI -------------------------
Scenario make_attack_smoke(const RunKnobs& knobs) {
  (void)knobs;  // deliberately fixed-size: CI wall time must not scale up
  Scenario s;
  s.name = "attack_smoke";
  s.description =
      "tiny selfish-mining + partition and NG-equivocation sweep for CI determinism";
  s.seed_base = 9200;
  s.base.num_nodes = 24;
  s.base.tx_size = kTxSize;
  s.base.drain_time = 30;
  s.base.params.max_block_size = 5000;
  s.base.params.max_microblock_size = 5000;
  Axis axis{"attack", {}};
  axis.values.push_back(AxisValue{"selfish_partition", 0, [](sim::ExperimentConfig& cfg) {
                                    cfg.params.protocol = chain::Protocol::kBitcoin;
                                    cfg.params.block_interval = 10.0;
                                    cfg.target_blocks = 12;
                                    cfg.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
                                    cfg.adversary.power_share = 0.30;
                                    net::FaultPlan::Partition cut;
                                    cut.at = 30.0;
                                    cut.heal_at = 60.0;
                                    for (NodeId v = 0; v < 12; ++v) cut.group.push_back(v);
                                    cfg.faults.partitions.push_back(std::move(cut));
                                  }});
  axis.values.push_back(AxisValue{"ng_equivocate", 1, [](sim::ExperimentConfig& cfg) {
                                    cfg.params = chain::Params::bitcoin_ng();
                                    cfg.params.block_interval = 30.0;
                                    cfg.params.microblock_interval = 3.0;
                                    cfg.params.max_block_size = 5000;
                                    cfg.params.max_microblock_size = 5000;
                                    cfg.target_blocks = 30;
                                    cfg.adversary.kind =
                                        sim::AdversarySpec::Kind::kEquivocate;
                                    cfg.adversary.power_share = 0.35;
                                    cfg.adversary.equivocate_every = 1;
                                  }});
  s.axes.push_back(std::move(axis));
  s.extra = [](const sim::Experiment& exp, NamedValues& v) {
    const auto a = metrics::attacker_report(exp, exp.config().adversary.node);
    v.emplace_back("revenue_share", a.revenue_share);
    v.emplace_back("frauds_detected", static_cast<double>(exp.trace().frauds().size()));
  };
  return s;
}

// --- smoke: tiny CI sweep ----------------------------------------------------
Scenario make_smoke(const RunKnobs& knobs) {
  (void)knobs;  // deliberately fixed-size: CI wall time must not scale up
  Scenario s;
  s.name = "smoke";
  s.description = "tiny Bitcoin-vs-NG sweep for CI and determinism checks";
  s.seed_base = 100;
  s.base.num_nodes = 40;
  s.base.target_blocks = 8;
  s.base.tx_size = kTxSize;
  s.base.drain_time = 30;
  s.base.params.max_block_size = 5000;
  s.base.params.max_microblock_size = 5000;
  Axis axis = protocol_axis({chain::Protocol::kBitcoin, chain::Protocol::kBitcoinNG});
  for (AxisValue& v : axis.values) {
    ConfigDelta inner = std::move(v.apply);
    v.apply = [inner](sim::ExperimentConfig& cfg) {
      inner(cfg);
      cfg.params.block_interval =
          cfg.params.protocol == chain::Protocol::kBitcoinNG ? 60.0 : 15.0;
      cfg.params.microblock_interval = 5.0;
    };
  }
  s.axes.push_back(std::move(axis));
  return s;
}

}  // namespace

void register_builtin_scenarios() {
  struct Builtin {
    const char* name;
    Scenario (*make)(const RunKnobs&);
  };
  static constexpr Builtin kBuiltins[] = {
      {"fig6", make_fig6},
      {"fig7", make_fig7},
      {"fig7_10k", make_fig7_10k},
      {"fig8a", make_fig8a},
      {"fig8b", make_fig8b},
      {"ablation_ghost", make_ablation_ghost},
      {"ablation_keyblock_freq", make_ablation_keyblock},
      {"ablation_power_drop", make_ablation_power_drop},
      {"ablation_selfish_mining", make_ablation_selfish},
      {"selfish_threshold", make_selfish_threshold},
      {"selfish_frontier", make_selfish_frontier},
      {"partition_heal", make_partition_heal},
      {"eclipse", make_eclipse},
      {"eclipse_selfish", make_eclipse_selfish},
      {"ng_poison", make_ng_poison},
      {"attack_smoke", make_attack_smoke},
      {"smoke", make_smoke},
  };
  for (const Builtin& b : kBuiltins) {
    // Description comes from a throwaway smallest-scale instantiation so the
    // registry can list it without running anything.
    Scenario probe = b.make(RunKnobs{10, 1});
    register_scenario(b.name, probe.description, b.make);
  }
}

}  // namespace bng::runner
