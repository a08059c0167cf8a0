// Attack demo: a leader splits the brain of the system and gets poisoned.
//
// Paper §4.5: microblocks are cheap, so a malicious leader can sign two
// different microblocks extending the same block and show different ledger
// states to different victims (a double-spend setup). Any node holding both
// signed headers has a proof of fraud; the next leader places a *poison
// transaction* that revokes the cheater's revenue and pays the poisoner a
// 5% bounty. This example walks the whole arc and replays the final chain
// through the UTXO ledger to show the money actually moved.
#include <cstdio>

#include "chain/utxo.hpp"
#include "net/network.hpp"
#include "ng/ng_node.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace bng;

  // --- A five-node NG network --------------------------------------------
  auto params = chain::Params::bitcoin_ng();
  params.microblock_interval = 2.0;
  params.max_microblock_size = 8000;

  net::EventQueue queue;
  Rng rng(99);
  auto topology = net::Topology::complete(5);
  net::Network network(queue, topology, net::LatencyModel::constant(0.05),
                       net::LinkParams{1e6, 40}, rng);
  auto genesis = chain::make_genesis(4000, kCoin);
  sim::TraceRecorder trace(genesis);

  // Transaction i spends genesis output i: 1000 fee, 120 padding bytes.
  const protocol::SyntheticWorkload pool({genesis->txs()[0]->id(), kCoin - 1000, 1000, 120, 0},
                                         4000);

  std::vector<std::unique_ptr<ng::NgNode>> nodes;
  for (NodeId i = 0; i < 5; ++i) {
    protocol::NodeConfig cfg;
    cfg.params = params;
    cfg.verify_signatures = true;  // full ECDSA checks in this demo
    cfg.workload = &pool;
    nodes.push_back(
        std::make_unique<ng::NgNode>(i, network, genesis, cfg, rng.fork(i), &trace));
    network.attach(i, nodes.back().get());
  }

  // --- Act 1: node 0 honestly leads an epoch ------------------------------
  std::printf("[t=%5.1f] node 0 wins a key block and leads\n", queue.now());
  nodes[0]->on_mining_win(1.0);
  queue.run_until(queue.now() + 5.0);

  // --- Act 2: node 0 equivocates ------------------------------------------
  const auto& tree0 = nodes[0]->tree();
  Hash256 key_block_id;
  for (const BlockId id : tree0.path_from_genesis(tree0.best_tip()))
    if (tree0.facts(id).block->type() == chain::BlockType::kKey)
      key_block_id = tree0.facts(id).block->id();
  std::printf("[t=%5.1f] node 0 signs a SECOND microblock on its key block "
              "(split brain / double-spend setup)\n",
              queue.now());
  nodes[0]->forge_microblock(key_block_id);
  queue.run_until(queue.now() + 5.0);

  std::printf("[t=%5.1f] fraud detected by %zu node(s)\n", queue.now(),
              trace.frauds().size());

  // --- Act 3: node 1 takes over and poisons --------------------------------
  std::printf("[t=%5.1f] node 1 wins the next key block\n", queue.now());
  nodes[1]->on_mining_win(1.0);
  queue.run_until(queue.now() + 10.0);
  std::printf("[t=%5.1f] node 1 placed %llu poison transaction(s)\n", queue.now(),
              static_cast<unsigned long long>(nodes[1]->poisons_placed()));

  // --- Act 4: replay the winning chain; follow the money -------------------
  chain::Ledger ledger(params);
  if (!ledger.apply_block(*genesis).ok) return 1;
  const auto& t = nodes[2]->tree();  // a bystander's view
  for (const BlockId id : t.path_from_genesis(t.best_tip())) {
    if (id == t.genesis()) continue;
    auto r = ledger.apply_block(*t.facts(id).block);
    if (!r.ok) {
      std::printf("replay error: %s\n", r.error.c_str());
      return 1;
    }
  }
  const double cheater = static_cast<double>(
                             ledger.total_balance(nodes[0]->reward_address())) / kCoin;
  const double poisoner = static_cast<double>(
                              ledger.total_balance(nodes[1]->reward_address())) / kCoin;
  std::printf("\nledger after replaying the main chain (subsidy = %.0f coins):\n",
              static_cast<double>(params.block_subsidy) / kCoin);
  std::printf("  cheater  (node 0): %8.4f coins   <- revenue revoked (was subsidy + fees)\n",
              cheater);
  std::printf("  poisoner (node 1): %8.4f coins   <- subsidy + fee shares + 5%% bounty\n",
              poisoner);
  std::printf("  cheater poisoned:  %s\n",
              ledger.is_poisoned(key_block_id) ? "yes" : "no");
  return cheater == 0.0 ? 0 : 1;
}
