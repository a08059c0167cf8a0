// GHOST protocol node (paper §9, Appendix A).
//
// Identical to the Bitcoin node except: (1) fork choice follows the heaviest
// *subtree* rather than the heaviest chain, and (2) all valid blocks are
// relayed, not only active-chain blocks — the paper evaluated GHOST this way
// ("we ... did evaluate the system by implementing it, propagating all
// blocks").
#pragma once

#include "bitcoin/bitcoin_node.hpp"
#include "protocol/selfish_node.hpp"

namespace bng::ghost {

class GhostNode : public bitcoin::BitcoinNode {
 public:
  GhostNode(NodeId id, net::Network& net, chain::BlockPtr genesis, protocol::NodeConfig cfg,
            Rng rng, protocol::IBlockObserver* observer);

 protected:
  [[nodiscard]] bool should_relay(BlockId id) const override {
    (void)id;
    return true;
  }
};

/// SM1 against the heaviest-subtree rule: withheld blocks stay out of the
/// honest subtree weighing, the publish/match/race schedule is unchanged.
using SelfishGhostMiner = protocol::SelfishNode<GhostNode>;

}  // namespace bng::ghost
