// Reference (ε,δ) consensus delay: the direct per-node rescan that
// metrics::consensus_delay replaced. At each sample time it rebuilds every
// node's chain from its tip history and counts every node's vote for each
// candidate cut. Slow, but obviously the definition, so the differential
// tests hold the merged-pass implementation to it bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/block_tree.hpp"
#include "common/stats.hpp"
#include "metrics/metrics.hpp"
#include "sim/experiment.hpp"

namespace bng::testing {

inline double reference_consensus_delay(const sim::Experiment& exp, double epsilon,
                                        double delta) {
  using chain::BlockTree;
  const BlockTree& g = exp.global_tree();
  const auto& nodes = exp.nodes();
  const std::size_t n_nodes = nodes.size();
  const auto quorum = static_cast<std::size_t>(epsilon * static_cast<double>(n_nodes));

  // Generation times (ascending) with global indices: candidate prefix cuts.
  struct Gen {
    Seconds at;
    std::uint32_t gidx;
  };
  std::vector<Gen> gens;
  for (const auto& rec : exp.trace().generated()) {
    if (const std::uint32_t gi = g.index_of_id(rec.id); gi != BlockTree::kNoIndex)
      gens.push_back({rec.at, gi});
  }
  std::sort(gens.begin(), gens.end(), [](const Gen& a, const Gen& b) { return a.at < b.at; });
  if (gens.empty()) return 0.0;

  // Per node: node-tree entry -> global index; unknowns map to the root.
  std::vector<std::vector<std::uint32_t>> global_of(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const BlockTree& t = nodes[n]->tree();
    global_of[n].resize(t.size());
    for (std::uint32_t i = 0; i < t.size(); ++i) {
      const std::uint32_t gi = g.index_of_id(t.entry(i).id);
      global_of[n][i] = gi != BlockTree::kNoIndex ? gi : 0;
    }
  }

  constexpr std::size_t kSamples = 240;
  const Seconds t_begin = gens.front().at + 0.1 * (gens.back().at - gens.front().at);
  const Seconds t_end = gens.back().at;
  std::vector<Seconds> sample_times;
  if (t_end <= t_begin) {
    sample_times.push_back(t_end);
  } else {
    for (std::size_t s = 0; s < kSamples; ++s)
      sample_times.push_back(t_begin + (t_end - t_begin) * static_cast<double>(s + 1) /
                                           static_cast<double>(kSamples));
  }

  std::vector<double> point_delays;
  std::vector<std::vector<std::pair<Seconds, std::uint32_t>>> chains(n_nodes);
  std::unordered_map<std::uint32_t, std::size_t> votes;

  for (const Seconds t : sample_times) {
    // Each node's chain at time t: (timestamp, global idx) ascending.
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const BlockTree& tree = nodes[n]->tree();
      const auto& hist = tree.tip_history();
      auto it = std::upper_bound(
          hist.begin(), hist.end(), t,
          [](Seconds value, const BlockTree::TipChange& c) { return value < c.at; });
      const std::uint32_t tip = (it == hist.begin()) ? 0 : std::prev(it)->tip;
      auto& chain = chains[n];
      chain.clear();
      for (std::int32_t cur = static_cast<std::int32_t>(tip); cur != -1;
           cur = tree.entry(static_cast<std::uint32_t>(cur)).parent) {
        const auto& e = tree.entry(static_cast<std::uint32_t>(cur));
        chain.emplace_back(e.block->header().timestamp,
                           global_of[n][static_cast<std::uint32_t>(cur)]);
      }
      std::reverse(chain.begin(), chain.end());
    }

    // Scan candidate cut times from most recent backwards.
    double delay = t;
    for (auto g_it = std::upper_bound(
             gens.begin(), gens.end(), t,
             [](Seconds value, const Gen& rec) { return value < rec.at; });
         g_it != gens.begin();) {
      --g_it;
      const Seconds tau = g_it->at;
      votes.clear();
      std::size_t best = 0;
      for (std::size_t n = 0; n < n_nodes; ++n) {
        const auto& chain = chains[n];
        auto c_it = std::upper_bound(
            chain.begin(), chain.end(), tau,
            [](Seconds value, const auto& pr) { return value < pr.first; });
        const std::uint32_t cut = (c_it == chain.begin()) ? 0 : std::prev(c_it)->second;
        best = std::max(best, ++votes[cut]);
      }
      if (best >= quorum) {
        delay = t - tau;
        break;
      }
    }
    point_delays.push_back(delay);
  }
  return percentile(std::move(point_delays), delta * 100.0);
}

/// metrics::consensus_delay equals the reference exactly at every
/// ε ∈ {0.1, 0.5, 0.9, 1.0} × δ ∈ {0.5, 0.9}.
inline void expect_consensus_delay_matches_reference(const sim::Experiment& exp) {
  for (const double epsilon : {0.1, 0.5, 0.9, 1.0}) {
    for (const double delta : {0.5, 0.9}) {
      EXPECT_EQ(metrics::consensus_delay(exp, epsilon, delta),
                reference_consensus_delay(exp, epsilon, delta))
          << "epsilon=" << epsilon << " delta=" << delta;
    }
  }
}

}  // namespace bng::testing
