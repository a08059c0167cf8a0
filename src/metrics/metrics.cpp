#include "metrics/metrics.hpp"

#include <algorithm>
#include <type_traits>

#include "common/stats.hpp"
#include "obs/registry.hpp"

namespace bng::metrics {

namespace {

using chain::BlockTree;
using sim::Experiment;

/// Main-chain membership flags indexed by interned BlockId, built in one
/// pass over the eventual (global) main chain. Every membership probe in the
/// metrics suite is then a single array read.
std::vector<char> main_chain_flags(const Experiment& exp) {
  const BlockTree& g = exp.global_tree();
  std::vector<char> on_main(g.store().interner().size(), 0);
  for (const BlockId id : g.path_from_genesis(g.best_tip())) on_main[id] = 1;
  return on_main;
}

/// Largest miner = the node with the greatest mining power.
std::uint32_t largest_miner(const Experiment& exp) {
  const auto& powers = exp.powers();
  return static_cast<std::uint32_t>(
      std::max_element(powers.begin(), powers.end()) - powers.begin());
}

/// Weight-bearing (non-micro) block counts, generated and on the eventual
/// main chain, split by one designated node. Shared by fairness() and
/// attacker_report() so the two accountings cannot drift apart.
struct PowBlockCounts {
  std::uint64_t gen_total = 0;
  std::uint64_t gen_by_node = 0;
  std::uint64_t main_total = 0;
  std::uint64_t main_by_node = 0;
};

PowBlockCounts count_pow_blocks(const Experiment& exp, NodeId node) {
  PowBlockCounts c;
  const auto on_main = main_chain_flags(exp);
  for (const auto& rec : exp.trace().generated()) {
    if (rec.block->type() == chain::BlockType::kMicro) continue;
    ++c.gen_total;
    const bool by_node = rec.miner == node;
    c.gen_by_node += by_node ? 1 : 0;
    if (on_main[rec.id]) {
      ++c.main_total;
      c.main_by_node += by_node ? 1 : 0;
    }
  }
  return c;
}

}  // namespace

std::vector<BlockId> final_main_chain(const Experiment& exp) {
  const BlockTree& g = exp.global_tree();
  return g.path_from_genesis(g.best_tip());
}

double consensus_delay(const Experiment& exp, double epsilon, double delta) {
  const BlockTree& g = exp.global_tree();
  const std::size_t n_nodes = exp.nodes().size();
  const auto quorum = static_cast<std::size_t>(epsilon * static_cast<double>(n_nodes));

  // Generation times (ascending): candidate prefix cuts.
  std::vector<Seconds> gens;
  gens.reserve(exp.trace().generated().size());
  for (const auto& rec : exp.trace().generated())
    if (g.contains_id(rec.id)) gens.push_back(rec.at);
  std::sort(gens.begin(), gens.end());
  if (gens.empty()) return 0.0;

  // Sample the point consensus delay on a uniform grid across the run
  // (prefix cuts happen at block generation times, per Fig. 4; the reported
  // delay is measured back to the newest commonly-agreed block's generation).
  // The first 10% of the run is skipped as genesis warm-up.
  constexpr std::size_t kSamples = 240;
  const Seconds t_begin = gens.front() + 0.1 * (gens.back() - gens.front());
  const Seconds t_end = gens.back();
  std::vector<Seconds> sample_times;
  if (t_end <= t_begin) {
    sample_times.push_back(t_end);
  } else {
    for (std::size_t s = 0; s < kSamples; ++s)
      sample_times.push_back(t_begin + (t_end - t_begin) * static_cast<double>(s + 1) /
                                           static_cast<double>(kSamples));
  }

  // Nodes holding the same tip hold the same chain, so the vote is taken per
  // distinct tip, weighted by how many nodes hold it. One pass over the
  // store's tip log (event order; node v is view v, and the last view is the
  // trace recorder's) files each change under the first sample at or after
  // it; replayed forward, a node's tip at a sample is its last change at or
  // before it (every view opens with genesis at 0). Only where each node
  // ends a sample matters, not how the nodes' changes interleave.
  struct Change {
    std::uint32_t node;
    BlockId tip;
  };
  std::vector<std::vector<Change>> changes_before(sample_times.size());
  for (const chain::BlockStore::TipEntry& c : g.store().tip_log()) {
    if (c.view >= n_nodes) continue;
    const auto s_it = std::lower_bound(sample_times.begin(), sample_times.end(), c.at);
    if (s_it == sample_times.end()) continue;
    changes_before[static_cast<std::size_t>(s_it - sample_times.begin())].push_back(
        {c.view, c.tip});
  }

  // Per tip BlockId: its holder count. Chains are walked in the shared store,
  // which answers for every node alike. `live` lists each held tip exactly
  // once.
  struct Tip {
    std::size_t holders = 0;
    bool listed = false;
  };
  const std::size_t n_ids = g.store().interner().size();
  std::vector<Tip> tips(n_ids);
  std::vector<BlockId> live;
  std::vector<BlockId> held(n_nodes, kNoBlockId);

  std::vector<double> point_delays;
  point_delays.reserve(sample_times.size());
  std::vector<std::size_t> votes(n_ids, 0);
  std::vector<BlockId> voted;

  for (std::size_t s = 0; s < sample_times.size(); ++s) {
    const Seconds t = sample_times[s];
    for (const Change& c : changes_before[s]) {
      if (held[c.node] != kNoBlockId) --tips[held[c.node]].holders;
      held[c.node] = c.tip;
      Tip& tip = tips[c.tip];
      ++tip.holders;
      if (!tip.listed) {
        tip.listed = true;
        live.push_back(c.tip);
      }
    }
    // Unlist tips nobody holds any more. A tip that lost its last holder and
    // regained one since the previous sample was never unlisted, so it still
    // appears once.
    std::erase_if(live, [&](BlockId id) {
      if (tips[id].holders != 0) return false;
      tips[id].listed = false;
      return true;
    });

    // Scan candidate cut times from most recent backwards.
    double delay = t;  // worst case: only the genesis prefix is agreed
    for (auto g_it = std::upper_bound(gens.begin(), gens.end(), t); g_it != gens.begin();) {
      const Seconds tau = *--g_it;
      std::size_t best = 0;
      for (const BlockId id : live) {
        // Last chain block with timestamp <= tau; blocks the global tree
        // does not know vote for its root.
        const BlockId cut = g.ancestor_at_or_before(id, tau);
        const BlockId key = g.contains_id(cut) ? cut : g.genesis();
        if (votes[key] == 0) voted.push_back(key);
        votes[key] += tips[id].holders;
        best = std::max(best, votes[key]);
      }
      for (const BlockId key : voted) votes[key] = 0;
      voted.clear();
      if (best >= quorum) {
        delay = t - tau;
        break;
      }
    }
    point_delays.push_back(delay);
  }
  return percentile(std::move(point_delays), delta * 100.0);
}

double fairness(const Experiment& exp) {
  const PowBlockCounts c = count_pow_blocks(exp, largest_miner(exp));
  if (c.gen_total == 0 || c.main_total == 0 || c.gen_by_node == c.gen_total) return 0.0;
  const double main_ratio = static_cast<double>(c.main_total - c.main_by_node) /
                            static_cast<double>(c.main_total);
  const double gen_ratio = static_cast<double>(c.gen_total - c.gen_by_node) /
                           static_cast<double>(c.gen_total);
  return main_ratio / gen_ratio;
}

double mining_power_utilization(const Experiment& exp) {
  const auto on_main = main_chain_flags(exp);
  double total = 0, main = 0;
  for (const auto& rec : exp.trace().generated()) {
    if (rec.block->type() == chain::BlockType::kMicro) continue;
    total += rec.block->work();
    if (on_main[rec.id]) main += rec.block->work();
  }
  return total > 0 ? main / total : 0.0;
}

double time_to_prune(const Experiment& exp, double percentile_value) {
  const auto on_main = main_chain_flags(exp);
  const chain::BlockStore& store = exp.global_tree().store();
  const auto n_nodes = static_cast<std::uint32_t>(exp.nodes().size());
  // A node's view (node v's tree is view v) holds a prefix of the main
  // chain, whose work never falls: the first main-chain block outweighing a
  // branch is one block for all nodes, and prunes it where it arrives.
  const std::vector<BlockId> main = final_main_chain(exp);
  const auto lighter = [&store](double work, BlockId id) {
    return work < store.facts(id).chain_work;
  };

  // Off-main blocks by branch, rooted where they leave the chain. Ids are
  // interned in generation order, so a parent's id is below its children's.
  std::vector<std::uint32_t> branch_of(store.rows(), 0);
  std::vector<std::vector<BlockId>> branches;  // members, root first
  for (BlockId id = 0; id < store.rows(); ++id) {
    if (on_main[id] || !store.known(id)) continue;
    const BlockId parent = store.facts(id).parent;
    branch_of[id] = on_main[parent] ? static_cast<std::uint32_t>(branches.size())
                                    : branch_of[parent];
    if (on_main[parent]) branches.emplace_back();
    branches[branch_of[id]].push_back(id);
  }

  // Block by block over the planes: the heaviest member each node holds,
  // then each holder's wait from the root's arrival to the pruning block's.
  std::vector<double> samples;
  std::vector<double> max_work(n_nodes);
  for (const std::vector<BlockId>& members : branches) {
    std::fill(max_work.begin(), max_work.end(), 0.0);
    for (const BlockId id : members) {
      const double work = store.facts(id).chain_work;
      for (std::uint32_t v = 0; v < n_nodes; ++v)
        if (store.ordinal(id, v) != chain::BlockStore::kNotAccepted)
          max_work[v] = std::max(max_work[v], work);
    }
    const BlockId root = members.front();
    for (std::uint32_t v = 0; v < n_nodes; ++v) {
      if (store.ordinal(root, v) == chain::BlockStore::kNotAccepted) continue;
      const auto pruner = std::upper_bound(main.begin(), main.end(), max_work[v], lighter);
      if (pruner == main.end()) continue;  // never pruned within the run
      if (store.ordinal(*pruner, v) == chain::BlockStore::kNotAccepted) continue;
      const Seconds wait = store.arrival(*pruner, v) - store.arrival(root, v);
      samples.push_back(wait <= 0 ? 0.0 : wait);  // <= 0: pruned on arrival
    }
  }
  return percentile(std::move(samples), percentile_value);
}

double time_to_win(const Experiment& exp, double percentile_value) {
  const BlockTree& g = exp.global_tree();
  const auto main_path = g.path_from_genesis(g.best_tip());

  // All generated blocks in the global tree with their times.
  struct Gen {
    Seconds at;
    BlockId id;
    NodeId miner;
  };
  std::vector<Gen> gens;
  for (const auto& rec : exp.trace().generated())
    if (g.contains_id(rec.id)) gens.push_back({rec.at, rec.id, rec.miner});

  std::vector<double> samples;
  for (std::size_t p = 1; p < main_path.size(); ++p) {  // skip genesis
    const BlockId b = main_path[p];
    const Seconds t_b = g.received(b);
    const NodeId miner_b = g.facts(b).block->miner();
    double ttw = 0;
    for (const Gen& other : gens) {
      if (other.at <= t_b || other.id == b) continue;
      if (other.miner == miner_b) continue;  // "a (different) node"
      if (g.is_ancestor(b, other.id)) continue;  // descendants agree
      ttw = std::max(ttw, other.at - t_b);
    }
    samples.push_back(ttw);
  }
  return percentile(std::move(samples), percentile_value);
}

double transaction_frequency(const Experiment& exp) {
  const BlockTree& g = exp.global_tree();
  const Seconds duration = g.received(g.best_tip());
  if (duration <= 0) return 0.0;
  return static_cast<double>(g.best().chain_tx_count) / duration;
}

AttackerReport attacker_report(const Experiment& exp, NodeId attacker) {
  AttackerReport r;
  const PowBlockCounts c = count_pow_blocks(exp, attacker);
  r.total_generated = c.gen_total;
  r.attacker_generated = c.gen_by_node;
  r.main_blocks = static_cast<std::uint32_t>(c.main_total);
  r.attacker_main_blocks = static_cast<std::uint32_t>(c.main_by_node);
  const auto& powers = exp.powers();
  double total_power = 0;
  for (double p : powers) total_power += p;
  if (attacker < powers.size() && total_power > 0)
    r.fair_share = powers[attacker] / total_power;
  if (r.main_blocks > 0)
    r.revenue_share = static_cast<double>(r.attacker_main_blocks) / r.main_blocks;
  if (r.fair_share > 0) r.relative_gain = r.revenue_share / r.fair_share - 1.0;
  if (r.total_generated > 0 && r.main_blocks > 0) {
    const double gen_att = static_cast<double>(r.attacker_generated) /
                           static_cast<double>(r.total_generated);
    if (gen_att > 0) r.attacker_acceptance = r.revenue_share / gen_att;
    if (gen_att < 1.0)
      r.honest_acceptance = (1.0 - r.revenue_share) / (1.0 - gen_att);
  }
  return r;
}

std::vector<double> propagation_delays(const Experiment& exp) {
  // One plane row per generated block, read across the nodes' views in node
  // order (node v's tree is view v).
  const chain::BlockStore& store = exp.global_tree().store();
  const auto n_nodes = static_cast<std::uint32_t>(exp.nodes().size());
  std::vector<double> delays;
  for (const auto& rec : exp.trace().generated()) {
    for (std::uint32_t v = 0; v < n_nodes; ++v) {
      if (v == rec.miner) continue;  // the miner holds it instantly
      if (store.ordinal(rec.id, v) != chain::BlockStore::kNotAccepted)
        delays.push_back(store.arrival(rec.id, v) - rec.at);
    }
  }
  return delays;
}

MetricsReport compute_metrics(const Experiment& exp, double epsilon, double delta) {
  MetricsReport r;
  r.consensus_delay_s = consensus_delay(exp, epsilon, delta);
  r.fairness = fairness(exp);
  r.mining_power_utilization = mining_power_utilization(exp);
  r.time_to_prune_p90_s = time_to_prune(exp, 90);
  r.time_to_win_p90_s = time_to_win(exp, 90);
  r.tx_per_sec = transaction_frequency(exp);

  const auto main_flags = main_chain_flags(exp);
  for (const auto& rec : exp.trace().generated()) {
    const bool on_main = main_flags[rec.id] != 0;
    if (rec.block->type() == chain::BlockType::kMicro) {
      ++r.total_micro_blocks;
      if (on_main) ++r.main_chain_micro_blocks;
    } else {
      ++r.total_pow_blocks;
      if (on_main) ++r.main_chain_pow_blocks;
    }
  }
  const auto& g = exp.global_tree();
  r.main_chain_txs = g.best().chain_tx_count;
  r.chain_duration_s = g.received(g.best_tip());

  r.prop_delay_samples = propagation_delays(exp);
  // One copy serves all three ranks, each found by selection; the samples
  // themselves keep their order, which the histogram's floating-point sum
  // depends on.
  std::vector<double> delays = r.prop_delay_samples;
  r.prop_delay_p50_s = select_percentile(delays, 50);
  r.prop_delay_p90_s = select_percentile(delays, 90);
  r.prop_delay_p99_s = select_percentile(delays, 99);
  return r;
}

void register_report(obs::Registry& reg, const MetricsReport& m) {
  using obs::Unit;
  // Registration order is the record schema — append only, never reorder.
  reg.gauge("time_to_prune_p90_s", Unit::kSeconds,
            "delta time to prune, 90th percentile (paper §6)")
      .set(m.time_to_prune_p90_s);
  reg.gauge("time_to_win_p90_s", Unit::kSeconds,
            "time to win, 90th percentile (paper §6)")
      .set(m.time_to_win_p90_s);
  reg.gauge("mpu", Unit::kNone, "mining power utilization (paper §6)")
      .set(m.mining_power_utilization);
  reg.gauge("fairness", Unit::kNone,
            "non-largest-miner representation ratio (paper §8)")
      .set(m.fairness);
  reg.gauge("consensus_delay_s", Unit::kSeconds,
            "(epsilon,delta) consensus delay (paper §6)")
      .set(m.consensus_delay_s);
  reg.gauge("tx_per_sec", Unit::kNone, "committed payload transactions per second")
      .set(m.tx_per_sec);
  reg.counter("main_pow_blocks", Unit::kCount, "PoW blocks on the eventual main chain")
      .inc(m.main_chain_pow_blocks);
  reg.counter("total_pow_blocks", Unit::kCount, "PoW blocks generated anywhere")
      .inc(m.total_pow_blocks);
  reg.counter("main_micro_blocks", Unit::kCount,
              "NG microblocks on the eventual main chain")
      .inc(m.main_chain_micro_blocks);
  reg.counter("total_micro_blocks", Unit::kCount, "NG microblocks generated anywhere")
      .inc(m.total_micro_blocks);
  reg.counter("main_chain_txs", Unit::kCount,
              "payload transactions committed on the main chain")
      .inc(m.main_chain_txs);
  reg.gauge("prop_delay_p50_s", Unit::kSeconds,
            "block propagation delay, median (paper fig. 7)")
      .set(m.prop_delay_p50_s);
  reg.gauge("prop_delay_p90_s", Unit::kSeconds,
            "block propagation delay, 90th percentile (paper fig. 7)")
      .set(m.prop_delay_p90_s);
  reg.gauge("prop_delay_p99_s", Unit::kSeconds,
            "block propagation delay, 99th percentile (paper fig. 7)")
      .set(m.prop_delay_p99_s);
  // The whole distribution, not just three cuts: cumulative buckets expand
  // through the registry into flat record values (`prop_delay_s_count`,
  // `_sum`, `_le_*`), so aggregates and CSVs carry it with no codec change.
  obs::Histogram& h = reg.histogram(
      "prop_delay_s", {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0},
      Unit::kSeconds, "block propagation delay distribution (paper fig. 7)");
  for (double s : m.prop_delay_samples) h.observe(s);
}

std::vector<std::pair<std::string, double>> to_named_values(const MetricsReport& m) {
  obs::Registry reg;
  register_report(reg, m);
  return reg.snapshot();
}

std::vector<std::pair<std::string, double>> attacker_named_values(
    const AttackerReport& report) {
  obs::Registry reg;
  visit_attacker_fields(report, [&reg](const char* name, auto v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      reg.gauge(name, obs::Unit::kNone).set(v);
    } else {
      reg.counter(name, obs::Unit::kCount).inc(static_cast<std::uint64_t>(v));
    }
  });
  return reg.snapshot();
}

}  // namespace bng::metrics
