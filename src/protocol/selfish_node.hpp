// Generic selfish-mining adapter: wires a WithholdingStrategy into any
// protocol node type through the BaseNode hooks. SelfishNode<BitcoinNode>
// is the classic SM1 attacker; SelfishNode<GhostNode> withholds against the
// heaviest-subtree rule; SelfishNode<NgNode> withholds key blocks — and the
// microblocks it leads on its private chain ride along, published with their
// epoch (§5.1: this is exactly why microblocks must carry no weight, or the
// withheld epoch would gain from them).
#pragma once

#include "protocol/base_node.hpp"
#include "protocol/withholding.hpp"

namespace bng::protocol {

/// The attacker always prefers its own branch on ties: first-seen keeps the
/// locally-mined (first-inserted) private chain as the mining tip.
inline NodeConfig selfish_config(NodeConfig cfg) {
  cfg.params.tie_break = chain::TieBreak::kFirstSeen;
  return cfg;
}

template <class Base>
class SelfishNode : public Base {
 public:
  SelfishNode(NodeId id, net::Network& net, chain::BlockPtr genesis, NodeConfig cfg,
              Rng rng, IBlockObserver* observer,
              WithholdingStrategy::Mode mode = WithholdingStrategy::Mode::kSm1)
      : Base(id, net, std::move(genesis), selfish_config(std::move(cfg)), rng, observer),
        strategy_(this->tree_, [this](BlockId block) { this->announce(block, this->id_); },
                  mode) {
    strategy_.set_trace(this->cfg_.trace, id);
  }

  /// Mines on the *private* chain and withholds the block (SM1).
  void on_mining_win(double work) override {
    strategy_.begin_own_win();
    Base::on_mining_win(work);
    strategy_.end_own_win();
  }

  [[nodiscard]] std::size_t withheld() const { return strategy_.withheld(); }
  [[nodiscard]] std::uint64_t blocks_published() const {
    return strategy_.blocks_published();
  }
  [[nodiscard]] std::uint64_t branches_abandoned() const {
    return strategy_.branches_abandoned();
  }
  [[nodiscard]] const WithholdingStrategy& strategy() const { return strategy_; }

 protected:
  /// Reacts to accepted blocks per SM1 (publish / match / race / abandon).
  void after_accept(const chain::BlockPtr& block, BlockId id, BlockId old_tip) override {
    Base::after_accept(block, id, old_tip);
    strategy_.on_accept(id, block->miner() == this->id_);
  }

  /// Withheld blocks are never announced; published ones follow base policy.
  [[nodiscard]] bool should_relay(BlockId id) const override {
    const bool own = this->tree_.facts(id).block->miner() == this->id_;
    if (strategy_.suppress_relay(id, own)) return false;
    return Base::should_relay(id);
  }

  WithholdingStrategy strategy_;
};

}  // namespace bng::protocol
