// Payment network demo: the shared transaction pool as real payments.
//
// Every node's blocks draw from one pool of independent transfers (paper
// §7, "No Transaction Propagation"), each spending its own premined output
// of the genesis coinbase. Leaders serialize them into microblocks, and the
// resulting chain replays through the UTXO ledger, including the 40/60 fee
// split (§4.4) and coinbase maturity; a failed replay exits 1. A key block
// pays the previous epoch's fees, so the run lasts several epochs (4 key
// blocks at seed 7), and it exits 1 too if no miner holds more than its key
// blocks' subsidy: then no fee share was paid. It also reports
// per-transaction confirmation latency, illustrating §4.3: a user should
// wait for network propagation before trusting a microblock.
#include <cstdio>
#include <unordered_map>

#include "chain/utxo.hpp"
#include "common/stats.hpp"
#include "metrics/metrics.hpp"
#include "ng/ng_node.hpp"
#include "sim/experiment.hpp"

int main() {
  using namespace bng;

  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();
  cfg.params.block_interval = 20;
  cfg.params.microblock_interval = 5;
  cfg.params.max_microblock_size = 20'000;
  cfg.num_nodes = 60;
  cfg.target_blocks = 40;
  cfg.pool_size = 4000;  // premine outputs feeding the payments
  cfg.seed = 7;

  std::printf("payment network: %u nodes, one shared pool, %zu pending payments\n",
              cfg.num_nodes, cfg.pool_size);
  sim::Experiment exp(cfg);
  exp.run();

  // --- Replay the winning chain through the ledger -----------------------
  chain::Ledger ledger(cfg.params);
  if (!ledger.apply_block(*exp.genesis()).ok) {
    std::printf("genesis replay failed\n");
    return 1;
  }
  const auto& g = exp.global_tree();
  std::unordered_map<Hash256, Seconds, Hash256Hasher> committed_at;
  for (const BlockId id : g.path_from_genesis(g.best_tip())) {
    if (id == g.genesis()) continue;
    const chain::Block& block = *g.facts(id).block;
    auto r = ledger.apply_block(block);
    if (!r.ok) {
      std::printf("ledger replay failed: %s\n", r.error.c_str());
      return 1;
    }
    for (const auto& tx : block.txs())
      if (!tx->is_coinbase()) committed_at.emplace(tx->id(), g.received(id));
  }
  std::printf("replayed %llu transactions through the UTXO state machine\n",
              static_cast<unsigned long long>(ledger.transactions_applied()));

  // --- Confirmation latency: commit time at a remote node ----------------
  // §4.3: "a user that sees a microblock should wait for the propagation
  // time of the network before considering it in the chain".
  std::vector<double> confirmation;
  const auto& observer = *exp.nodes()[cfg.num_nodes - 1];
  const auto& tree = observer.tree();
  for (const BlockId id : tree.path_from_genesis(tree.best_tip())) {
    const chain::Block& block = *tree.facts(id).block;
    if (block.type() != chain::BlockType::kMicro) continue;
    for (const auto& tx : block.txs()) {
      auto it = committed_at.find(tx->id());
      if (it != committed_at.end())
        confirmation.push_back(tree.received(id) - it->second);  // receipt - generation
    }
  }
  auto s = summarize(confirmation);
  std::printf("\nconfirmation delay at a remote node (microblock receipt):\n  %s\n",
              format_summary(s).c_str());

  // --- Leader revenues -----------------------------------------------------
  std::printf("\nminer balances after the run (subsidy + fee shares, incl. immature):\n");
  int shown = 0;
  bool fees_paid = false;
  for (std::uint32_t i = 0; i < cfg.num_nodes; ++i) {
    const auto* node = dynamic_cast<const ng::NgNode*>(exp.nodes()[i].get());
    if (node == nullptr) continue;
    const Amount balance = ledger.total_balance(node->reward_address());
    const Amount subsidy =
        cfg.params.block_subsidy * static_cast<Amount>(node->key_blocks_mined());
    if (balance > subsidy) fees_paid = true;
    if (balance > 0 && shown < 5) {
      std::printf("  node %-3u mined %llu key blocks -> %.4f coins\n", i,
                  static_cast<unsigned long long>(node->key_blocks_mined()),
                  static_cast<double>(balance) / kCoin);
      ++shown;
    }
  }
  auto m = metrics::compute_metrics(exp);
  std::printf("\nthroughput: %.2f tx/s, consensus delay %.1f s\n", m.tx_per_sec,
              m.consensus_delay_s);
  if (!fees_paid) {
    std::printf("no miner holds more than its key blocks' subsidy: no fee share was paid\n");
    return 1;
  }
  return 0;
}
