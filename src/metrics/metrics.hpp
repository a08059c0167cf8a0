// The paper's evaluation metrics (§6), computed over a finished Experiment.
//
//  * (ε,δ) consensus delay — how far back nodes must look to agree
//  * fairness             — representation of non-largest miners
//  * mining power utilization — main-chain work / total work
//  * δ time to prune      — how long until a node knows a branch lost
//  * time to win          — disagreement window behind each main-chain block
//  * transaction frequency — committed payload tx/s
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/experiment.hpp"

namespace bng::obs {
class Registry;
}

namespace bng::metrics {

struct MetricsReport {
  double consensus_delay_s = 0;      ///< (ε,δ), defaults ε=δ=0.9 (paper §8)
  double fairness = 0;               ///< 1.0 is optimal
  double mining_power_utilization = 0;
  double time_to_prune_p90_s = 0;
  double time_to_win_p90_s = 0;
  double tx_per_sec = 0;

  // One-way block propagation (Figure 7's quantity, pooled over every
  // (block, node) pair): tail percentiles plus the raw samples, which
  // register_report folds into the `prop_delay_s` histogram so the record
  // schema carries the whole distribution, not just three cuts of it.
  double prop_delay_p50_s = 0;
  double prop_delay_p90_s = 0;
  double prop_delay_p99_s = 0;
  std::vector<double> prop_delay_samples;

  // Supporting counts.
  std::uint32_t main_chain_pow_blocks = 0;
  std::uint32_t total_pow_blocks = 0;
  std::uint32_t main_chain_micro_blocks = 0;
  std::uint32_t total_micro_blocks = 0;
  std::uint64_t main_chain_txs = 0;
  Seconds chain_duration_s = 0;
  std::size_t prune_samples = 0;
};

/// All metrics at once (shares the per-node precomputation).
MetricsReport compute_metrics(const sim::Experiment& exp, double epsilon = 0.9,
                              double delta = 0.9);

/// Register the standard report schema into `reg` (obs/registry.hpp) —
/// gauges for the §6 metrics, counters for the supporting block/tx counts —
/// and load the report's values. Registration order IS the record schema:
/// to_named_values is reg.snapshot() of exactly this call, so the names,
/// order, and bytes that reach RunRecords (and their digests) are pinned
/// here and nowhere else.
void register_report(obs::Registry& reg, const MetricsReport& report);

/// The report flattened to ordered (name, value) pairs — the shape run
/// records and the sweep aggregator consume. A pure function of the report
/// (register_report into a fresh registry, snapshotted).
std::vector<std::pair<std::string, double>> to_named_values(const MetricsReport& report);

/// (ε,δ) consensus delay (§6): the δ-percentile over sample times of the
/// ε-point-consensus delay, sampled at block generation times (§8 "Metrics").
double consensus_delay(const sim::Experiment& exp, double epsilon, double delta);

/// Fairness (§8): ratio of (main-chain blocks not by the largest miner /
/// all main-chain blocks) to (generated blocks not by the largest miner /
/// all generated blocks). PoW blocks only — microblocks carry no election.
double fairness(const sim::Experiment& exp);

/// Mining power utilization (§6): main-chain PoW work / all generated work.
double mining_power_utilization(const sim::Experiment& exp);

/// δ time to prune (§6): per (node, branch), receipt of first branch block
/// to receipt of the main-chain block that outweighs the branch.
double time_to_prune(const sim::Experiment& exp, double percentile_value = 90);

/// Time to win (§6): per main-chain block, generation time to the last
/// generation of a non-descendant block.
double time_to_win(const sim::Experiment& exp, double percentile_value = 90);

/// Committed payload transactions per second on the eventual main chain.
double transaction_frequency(const sim::Experiment& exp);

/// Adversary accounting (§2's 25%-bound experiments): counted over
/// weight-carrying blocks only (Bitcoin/GHOST blocks, NG key blocks — the
/// units mining revenue is paid in).
struct AttackerReport {
  double revenue_share = 0;   ///< attacker's fraction of main-chain PoW blocks
  double fair_share = 0;      ///< attacker's share of total mining power
  double relative_gain = 0;   ///< revenue_share / fair_share - 1 (0 == fair)
  /// Fairness split: each side's main-chain block share over its generated
  /// block share (1.0 == proportional representation).
  double attacker_acceptance = 0;
  double honest_acceptance = 0;
  std::uint32_t attacker_main_blocks = 0;
  std::uint32_t main_blocks = 0;
  std::uint64_t attacker_generated = 0;
  std::uint64_t total_generated = 0;
};

/// Revenue/fairness accounting for one designated attacker node.
AttackerReport attacker_report(const sim::Experiment& exp, NodeId attacker);

/// The attacker report flattened through the registry (gauges for the
/// shares, counters for the block counts) in visit_attacker_fields order —
/// the same schema the record codec and the sweep JSON emitter speak.
std::vector<std::pair<std::string, double>> attacker_named_values(
    const AttackerReport& report);

/// Visit every AttackerReport field as (name, member reference) in the one
/// canonical schema order shared by the record codec's binary and JSON
/// forms and the sweep JSON emitter: doubles first, then u32 counts, then
/// u64 counts. Add a field HERE and every representation picks it up;
/// callers dispatch on the member type with `if constexpr`.
template <class Report, class Fn>
void visit_attacker_fields(Report&& r, Fn&& fn) {
  fn("revenue_share", r.revenue_share);
  fn("fair_share", r.fair_share);
  fn("relative_gain", r.relative_gain);
  fn("attacker_acceptance", r.attacker_acceptance);
  fn("honest_acceptance", r.honest_acceptance);
  fn("attacker_main_blocks", r.attacker_main_blocks);
  fn("main_blocks", r.main_blocks);
  fn("attacker_generated", r.attacker_generated);
  fn("total_generated", r.total_generated);
}

/// One-way block propagation delays pooled over (block, node) pairs:
/// receipt_time - generation_time. Drives Figure 7.
std::vector<double> propagation_delays(const sim::Experiment& exp);

/// The eventual main chain, genesis first.
std::vector<BlockId> final_main_chain(const sim::Experiment& exp);

}  // namespace bng::metrics
