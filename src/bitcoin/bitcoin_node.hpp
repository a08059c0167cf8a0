// The baseline: a stock-Bitcoin miner node (paper §3).
//
// Mines on the heaviest chain it knows (random tie-breaking), fills blocks
// from the shared tx pool, and gossips blocks over the overlay.
// Proof-of-work is driven externally by the mining scheduler, mirroring the
// paper's regtest + in-situ controller setup (§7 "Simulated Mining").
#pragma once

#include <optional>

#include "protocol/base_node.hpp"

namespace bng::bitcoin {

class BitcoinNode : public protocol::BaseNode {
 public:
  BitcoinNode(NodeId id, net::Network& net, chain::BlockPtr genesis,
              protocol::NodeConfig cfg, Rng rng, protocol::IBlockObserver* observer);

  /// The mining scheduler decided this node found the next block.
  void on_mining_win(double work) override;

  [[nodiscard]] std::uint64_t blocks_mined() const { return blocks_mined_; }

  /// Address collecting this node's rewards. Derived on first use (from the
  /// node id): it costs a hash, and most nodes of a run never mine.
  [[nodiscard]] const Hash256& reward_address() const;

 protected:
  void handle_block(const chain::BlockPtr& block, BlockId id, NodeId from) override;

 private:
  [[nodiscard]] chain::BlockPtr build_block(BlockId tip, double work);

  mutable std::optional<Hash256> reward_address_;
  std::uint64_t blocks_mined_ = 0;
};

}  // namespace bng::bitcoin
