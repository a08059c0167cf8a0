// Shared machinery for protocol nodes: gossip, orphan handling, a CPU model
// for block verification, and block payloads from the shared tx pool.
//
// Hot-path state is keyed by interned BlockId (common/intern.hpp), shared
// experiment-wide through the Network: each node's known/requested bits and
// its CPU cursor live in the deployment-wide NodeStateArena
// (common/node_state.hpp), one byte per (block, node), block-major, which a
// node reads with its own id_; its tree is view id_ of the BlockStore. The
// orphan buffer is a small flat vector. Messages name blocks by id and a body
// is read from the store, so a relay never hashes a Hash256.
//
// announce() reads the arena's row for the block to see which peers have
// already seen it: their inv would be dropped on arrival, so it goes out as
// Network::send_ignored, charged but never delivered (see net/network.hpp).
//
// The hot span: every field a delivery reads (on_message through
// process_after) lies in the node's first net::INode::kHotBytes bytes (four
// cache lines), which the network prefetches while the event before the
// delivery runs. They are the vptr, id_, net_, arena_, observer_, orphans_,
// the tree (its store pointer, view and best tip) and NodeConfig's first
// fields: verify_fixed, verify_bytes_per_second and trace. rng_ and the
// rest of the config come after them. A static check in the constructor
// fails the build if one of these fields leaves the span.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "chain/block_tree.hpp"
#include "chain/params.hpp"
#include "common/intern.hpp"
#include "common/node_state.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "protocol/messages.hpp"
#include "protocol/observer.hpp"

namespace bng::obs {
class TraceRing;
}

namespace bng::protocol {

/// The synthetic transaction pool every node's blocks draw from. Paper §7
/// ("No Transaction Propagation") gives every node the same mempool of
/// independent, identically sized transactions serializable in any order;
/// one shared pool models that, and a node keeps no mempool of its own: a
/// block's payload is the pool slice after its parent's chain_tx_count.
///
/// Transaction i spends output i of the genesis coinbase and pays
/// address_from_tag(tag_base + i). It is built the first time a block reads
/// it: blocks read a prefix, so the pool builds [0, highest index read) and
/// nothing past it. Concurrent jobs share one pool, so reads are safe from
/// any thread: a transaction's id and wire size are computed (they are
/// cached in plain mutable fields) before the built watermark moves past it.
class SyntheticWorkload {
 public:
  /// What transaction i is made of.
  struct Generator {
    Hash256 genesis_txid;
    Amount value = 0;  ///< of each transaction's one output
    Amount fee = 0;
    std::uint32_t padding = 0;
    std::uint64_t tag_base = 0;
  };

  /// A pool of `size` transactions. Builds transaction 0, whose wire size
  /// every transaction shares.
  SyntheticWorkload(const Generator& gen, std::size_t size);

  [[nodiscard]] std::size_t size() const { return txs_.size(); }
  /// Identical for all transactions; 0 for an empty pool.
  [[nodiscard]] std::size_t tx_wire_size() const { return tx_wire_size_; }

  /// Transactions [begin, begin + count), built on first read. Throws
  /// std::out_of_range past size().
  [[nodiscard]] std::span<const chain::TxPtr> txs(std::size_t begin, std::size_t count) const;
  [[nodiscard]] const chain::TxPtr& tx(std::size_t i) const { return txs(i, 1)[0]; }

  /// How many transactions are built: always a prefix of the pool.
  [[nodiscard]] std::size_t built() const { return built_.load(std::memory_order_acquire); }

 private:
  void build_to(std::size_t end) const;

  Generator gen_;
  std::size_t tx_wire_size_ = 0;
  /// Sized once; slots [0, built_) are set and never change again.
  mutable std::vector<chain::TxPtr> txs_;
  mutable std::atomic<std::size_t> built_{0};
  mutable std::mutex build_mu_;
};

/// A node's settings. The fields a delivery reads come first, so they share
/// the node's hot span (see the header comment).
struct NodeConfig {
  /// Block verification cost model: fixed + size-proportional CPU time.
  /// 25 MB/s approximates a 2015-era bitcoind (ECDSA + UTXO checks).
  Seconds verify_fixed = 0.002;
  double verify_bytes_per_second = 25e6;
  /// Optional decision trace (obs/trace_ring.hpp). Null in every normal run:
  /// the traced paths pay one pointer test, nothing more. Recording never
  /// mutates sim state, so traced and untraced runs are bit-identical.
  obs::TraceRing* trace = nullptr;
  chain::Params params;
  /// Check microblock ECDSA signatures (the paper's artifact skipped this;
  /// we support both).
  bool verify_signatures = false;
  const SyntheticWorkload* workload = nullptr;  ///< required
};

class BaseNode : public net::INode {
 public:
  BaseNode(NodeId id, net::Network& net, chain::BlockPtr genesis, NodeConfig cfg, Rng rng,
           IBlockObserver* observer);
  ~BaseNode() override = default;

  // INode:
  void on_message(NodeId from, const net::Message& msg) final;

  /// Mining scheduler callback: this node won the next proof-of-work.
  /// `work` is the PoW weight of the won block (difficulty units).
  virtual void on_mining_win(double work) = 0;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const chain::BlockTree& tree() const { return tree_; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }

 protected:
  /// Protocol-specific validation + insertion. Runs after the verification
  /// delay. `id` is the block's interned identity (its message carried it).
  /// Implementations call accept_block() when the block is valid.
  virtual void handle_block(const chain::BlockPtr& block, BlockId id, NodeId from) = 0;

  /// Insert into the tree, relay, resolve orphans.
  void accept_block(const chain::BlockPtr& block, BlockId id, NodeId from, double work);

  /// Announce a block id to all neighbours except `except`.
  void announce(BlockId id, NodeId except);

  /// If the block's parent is in the tree, returns the parent's id.
  /// Otherwise buffers the block as an orphan, requests the parent from
  /// `from`, and returns kNoBlockId.
  BlockId ensure_parent(const chain::BlockPtr& block, BlockId id, NodeId from);

  /// Queue `fn` on this node's CPU after `cost` seconds of processing.
  void process_after(Seconds cost, net::EventQueue::Callback fn);

  [[nodiscard]] Seconds now() const { return net_.queue().now(); }

  /// Up to `max_bytes - reserve_bytes` of payload for a block on `tip`: the
  /// pool transactions after the tip's chain_tx_count, in pool order.
  [[nodiscard]] std::vector<chain::TxPtr> assemble_payload(BlockId tip,
                                                           std::size_t max_bytes,
                                                           std::size_t reserve_bytes) const;

  /// Called after a block is accepted and the tip possibly changed.
  virtual void after_accept(const chain::BlockPtr& block, BlockId id, BlockId old_tip) {
    (void)block;
    (void)id;
    (void)old_tip;
  }

  /// Relay policy. bitcoind only announces blocks on its active chain; GHOST
  /// (paper §9) must propagate all blocks so nodes can weigh subtrees.
  [[nodiscard]] virtual bool should_relay(BlockId id) const {
    return tree_.is_ancestor(id, tree_.best_tip());
  }

  // The hot span, in declaration order (see the header comment).
  NodeId id_;
  net::Network& net_;
  /// Deployment-wide gossip state; this node's entries are (id, id_).
  NodeStateArena& arena_;
  IBlockObserver* observer_;
  /// Blocks (bodies in the store) whose parent is missing. Orphans are rare
  /// and few, so a flat vector scanned by interned parent id beats a hash map.
  struct Orphan {
    BlockId parent;
    BlockId id;
    NodeId from;
  };
  std::vector<Orphan> orphans_;
  chain::BlockTree tree_;
  NodeConfig cfg_;  ///< its first fields are hot, the rest are not
  // Past the hot span.
  Rng rng_;

 private:
  void handle_inv(NodeId from, BlockId id);
  void handle_getdata(NodeId from, BlockId id);
  void handle_block_msg(NodeId from, BlockId id, std::uint32_t wire_size);
  void handle_held_block(BlockId id, NodeId from);  ///< handle_block on the stored body
  void resolve_orphans(BlockId parent_id);
};

}  // namespace bng::protocol
