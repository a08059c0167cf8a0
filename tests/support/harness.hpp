// Shared fixture: a miniature deployment for protocol-level tests.
#pragma once

#include <memory>
#include <vector>

#include "bitcoin/bitcoin_node.hpp"
#include "chain/block.hpp"
#include "ghost/ghost_node.hpp"
#include "net/network.hpp"
#include "ng/ng_node.hpp"
#include "protocol/base_node.hpp"
#include "sim/trace.hpp"

namespace bng::testing {

/// A tiny fully-connected network of `N` nodes with constant latency and
/// generous bandwidth, pre-filled with a synthetic workload.
enum class Topo { kComplete, kLine };

template <typename NodeT>
class MiniNet {
 public:
  explicit MiniNet(std::uint32_t n, chain::Params params, Seconds latency = 0.01,
                   double bandwidth_bps = 10e6, std::size_t pool_txs = 2000,
                   bool verify_signatures = true, Topo topo = Topo::kComplete)
      : rng_(12345),
        topology_(topo == Topo::kComplete ? net::Topology::complete(n)
                                          : net::Topology::line(n)),
        network_(queue_, topology_, net::LatencyModel::constant(latency),
                 net::LinkParams{bandwidth_bps, 40}, rng_),
        genesis_(chain::make_genesis(pool_txs, kCoin)),
        workload_({genesis_->txs()[0]->id(), kCoin - 1000, 1000, 120, 0}, pool_txs) {
    trace_ = std::make_unique<sim::TraceRecorder>(genesis_, network_.block_store());

    for (NodeId i = 0; i < n; ++i) {
      protocol::NodeConfig cfg;
      cfg.params = params;
      cfg.verify_signatures = verify_signatures;
      cfg.verify_fixed = 0.0005;
      cfg.workload = &workload_;
      nodes_.push_back(std::make_unique<NodeT>(i, network_, genesis_, cfg, rng_.fork(i),
                                               trace_.get()));
      network_.attach(i, nodes_.back().get());
    }
  }

  NodeT& node(NodeId i) { return *nodes_[i]; }
  net::EventQueue& queue() { return queue_; }
  net::Network& network() { return network_; }
  sim::TraceRecorder& trace() { return *trace_; }
  chain::BlockPtr genesis() { return genesis_; }
  const protocol::SyntheticWorkload& workload() { return workload_; }
  std::size_t size() const { return nodes_.size(); }

  /// Let in-flight messages settle.
  void settle(Seconds duration = 5.0) { queue_.run_until(queue_.now() + duration); }

  /// Do all nodes report the same best-tip block id?
  bool converged() const {
    const Hash256 tip0 = nodes_[0]->tree().best().block->id();
    for (const auto& n : nodes_)
      if (n->tree().best().block->id() != tip0) return false;
    return true;
  }

  /// Weaker agreement suited to NG, where the current leader is always a few
  /// microblocks ahead of everyone: every node's chain must be a prefix of
  /// the longest chain (same branch, possibly lagging).
  bool consistent() const {
    std::vector<std::vector<Hash256>> paths;
    for (const auto& n : nodes_) {
      const auto& t = n->tree();
      std::vector<Hash256> ids;
      for (const BlockId id : t.path_from_genesis(t.best_tip()))
        ids.push_back(t.facts(id).block->id());
      paths.push_back(std::move(ids));
    }
    const auto* longest = &paths[0];
    for (const auto& p : paths)
      if (p.size() > longest->size()) longest = &p;
    for (const auto& p : paths) {
      for (std::size_t i = 0; i < p.size(); ++i)
        if (p[i] != (*longest)[i]) return false;
    }
    return true;
  }

 private:
  net::EventQueue queue_;
  Rng rng_;
  net::Topology topology_;
  net::Network network_;
  chain::BlockPtr genesis_;
  protocol::SyntheticWorkload workload_;
  std::unique_ptr<sim::TraceRecorder> trace_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
};

}  // namespace bng::testing
