// Trace recording: the global, omniscient view of a run.
//
// Nodes report generated blocks through IBlockObserver; the recorder keeps
// the generation registry and a reference block tree built at generation
// times, from which the metrics suite derives the eventual main chain.
//
// The recorder shares the deployment's BlockStore (pass the network's), so
// its generation registry and reference tree agree on BlockId with every
// node tree, and the reference tree computes each generated block's chain
// facts once for the whole deployment (it admits a block at generation,
// before any node has received it). It is the store's last view.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "chain/block_tree.hpp"
#include "common/intern.hpp"
#include "common/types.hpp"
#include "protocol/observer.hpp"

namespace bng::obs {
class TraceRing;
}

namespace bng::sim {

class TraceRecorder : public protocol::IBlockObserver {
 public:
  struct Generated {
    chain::BlockPtr block;
    BlockId id = kNoBlockId;  ///< interned identity
    NodeId miner = kNoNode;
    Seconds at = 0;
  };

  struct FraudEvent {
    NodeId detector = kNoNode;
    Hash256 accused_key_block;
    Seconds at = 0;
  };

  /// Pass the deployment-wide store (net::Network::block_store()) so ids
  /// and facts agree across the global tree and every node tree; a
  /// standalone recorder may pass nullptr and owns a private store.
  explicit TraceRecorder(chain::BlockPtr genesis,
                         const std::shared_ptr<chain::BlockStore>& store = nullptr);

  void on_block_generated(const chain::BlockPtr& block, NodeId miner, Seconds at) override;
  void on_fraud_detected(NodeId detector, const Hash256& accused, Seconds at) override;

  /// Mirror generation/fraud events into a decision trace (obs/trace_ring.hpp).
  /// Null (the default) disables mirroring at the cost of one pointer test.
  void set_ring(obs::TraceRing* ring) { ring_ = ring; }

  [[nodiscard]] const std::vector<Generated>& generated() const { return generated_; }
  [[nodiscard]] const std::vector<FraudEvent>& frauds() const { return frauds_; }

  [[nodiscard]] std::uint64_t pow_blocks() const { return pow_blocks_; }
  [[nodiscard]] std::uint64_t micro_blocks() const { return micro_blocks_; }

  /// Reference tree: every generated block at its generation time.
  [[nodiscard]] const chain::BlockTree& global_tree() const { return tree_; }

  /// Generation record index for a block, if any.
  [[nodiscard]] std::optional<std::size_t> find(const Hash256& id) const;
  [[nodiscard]] std::optional<std::size_t> find_by_id(BlockId id) const;
  [[nodiscard]] const Generated& record(std::size_t idx) const { return generated_[idx]; }

 private:
  std::vector<Generated> generated_;
  std::vector<FraudEvent> frauds_;
  std::vector<std::uint32_t> index_by_id_;  ///< BlockId -> generated_ index
  chain::BlockTree tree_;
  std::uint64_t pow_blocks_ = 0;
  std::uint64_t micro_blocks_ = 0;
  obs::TraceRing* ring_ = nullptr;
};

}  // namespace bng::sim
