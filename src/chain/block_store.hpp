// The deployment-wide block store: each block's chain facts, computed once,
// and every node's chain view.
//
// A block's height, chain work, payload tx count and fee sum, epoch key block
// and skip-ancestor pointer are pure functions of the block and its ancestry,
// so they belong to no single node's view. One BlockStore per deployment
// (owned by net::Network and shared by every node tree and the trace
// recorder's global tree) holds them, keyed by the interned BlockId: the
// first tree to accept a block computes its facts, and every later tree
// reuses them after checking that it agrees. What differs between nodes is
// kept as flat planes, not per-node vectors: per (block, view), block-major,
// the view's acceptance ordinal and arrival time, and one tip log of every
// view's best-tip changes in event order. Each tree is one view.
//
// The store also owns the deployment's BlockInterner, so a BlockId names the
// same block in every tree, gossip set and wire message of the deployment,
// and the body of every block put on the wire (a message carries the id).
//
// Ancestry queries (`is_ancestor`, `ancestor_at_height`,
// `ancestor_at_or_before`) run here in O(log height) over skip-ancestor
// "jump" pointers (the skew-binary level-ancestor scheme: the jump length is
// a pure function of depth). Ancestry is a fact of the blocks, so the answer
// is the same from every node's view.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "common/intern.hpp"
#include "common/types.hpp"

namespace bng::chain {

/// Everything about a block that depends only on the block and its
/// ancestors. Cumulative statistics exclude genesis.
struct BlockFacts {
  BlockPtr block;                        ///< null until held or admitted
  BlockId parent = kNoBlockId;           ///< kNoBlockId for genesis
  BlockId jump = kNoBlockId;             ///< skip ancestor (genesis: itself)
  std::uint32_t height = 0;              ///< distance from genesis (all blocks)
  std::uint32_t pow_height = 0;          ///< number of PoW blocks up to here
  double work = 0;                       ///< PoW weight the block was admitted with
  double chain_work = 0;                 ///< accumulated PoW work along the chain
  std::uint64_t chain_tx_count = 0;      ///< payload txs (excl. coinbase/poison)
  Amount chain_fee_sum = 0;              ///< payload tx fees along the chain
  /// Nearest key-block ancestor (or self); genesis when no key block exists
  /// yet. Defines the current NG epoch.
  BlockId epoch_key_block = kNoBlockId;
};

class BlockStore {
 public:
  struct TipEntry {
    Seconds at;
    std::uint32_t view;
    BlockId tip;
  };
  static constexpr std::uint32_t kNotAccepted = UINT32_MAX;  ///< ordinal of a block not held

  /// A store for a fixed number (> 0) of views.
  explicit BlockStore(std::uint32_t views);
  [[nodiscard]] std::uint32_t views() const { return views_; }

  /// Id for `h`, assigning the next dense id at first sight.
  BlockId intern(const Hash256& h) { return interner_.intern(h); }
  /// Id for `h` if already interned; kNoBlockId otherwise.
  [[nodiscard]] BlockId lookup(const Hash256& h) const { return interner_.lookup(h); }
  [[nodiscard]] const BlockInterner& interner() const { return interner_; }

  /// Register the deployment's genesis block and return its id. Every tree
  /// of a deployment shares one genesis: a second, different one throws.
  BlockId admit_genesis(const BlockPtr& genesis);
  [[nodiscard]] BlockId genesis() const { return genesis_; }

  /// Admit `block` (interned as `id`, child of the admitted `parent`) with
  /// PoW weight `work`. The first admission computes its facts; every later
  /// one must agree on the block, its parent and its work, or this throws
  /// std::logic_error — trees sharing a store must never hold different
  /// facts for one block.
  void admit(const BlockPtr& block, BlockId id, BlockId parent, double work);

  /// Has any tree of the deployment admitted this block?
  [[nodiscard]] bool known(BlockId id) const {
    return id < facts_.size() && facts_[id].jump != kNoBlockId;
  }
  /// Keep the body of `block`, interned as `id`, readable by id (a no-op if
  /// held or admitted already; another block under the id throws).
  void hold(BlockId id, const BlockPtr& block);
  /// A held or admitted body; throws std::logic_error for any other id.
  /// Valid until the store next grows.
  [[nodiscard]] const BlockPtr& body(BlockId id) const;
  /// Facts of an admitted block. The reference stays valid until the next
  /// admission of a new block into this store, by any tree.
  [[nodiscard]] const BlockFacts& facts(BlockId id) const { return facts_[id]; }

  /// Is `anc` an ancestor of (or equal to) `desc`? O(log height).
  [[nodiscard]] bool is_ancestor(BlockId anc, BlockId desc) const;

  /// Ancestor of `id` at exactly `height` (requires height <= id's height).
  [[nodiscard]] BlockId ancestor_at_height(BlockId id, std::uint32_t height) const;

  /// Last block on the path to `tip` whose block timestamp is <= `time`
  /// (used by the consensus-delay metric). Accelerated by jump pointers;
  /// chain timestamps are non-decreasing root-to-tip (a child is built after
  /// its parent exists), which makes the skip sound.
  [[nodiscard]] BlockId ancestor_at_or_before(BlockId tip, Seconds time) const;

  /// Blocks from genesis to `tip`, inclusive.
  [[nodiscard]] std::vector<BlockId> path_from_genesis(BlockId tip) const;

  // --- Views ----------------------------------------------------------------
  /// Ids below this have a row: one entry per view in each plane.
  [[nodiscard]] std::size_t rows() const { return ordinal_.size() / views_; }
  /// `view`'s acceptance ordinal of `id` (genesis 0), or kNotAccepted.
  [[nodiscard]] std::uint32_t ordinal(BlockId id, std::uint32_t view) const {
    const std::size_t i = static_cast<std::size_t>(id) * views_ + view;
    return i < ordinal_.size() ? ordinal_[i] : kNotAccepted;
  }
  /// When `view` accepted `id` (requires an ordinal).
  [[nodiscard]] Seconds arrival(BlockId id, std::uint32_t view) const {
    return arrival_[static_cast<std::size_t>(id) * views_ + view];
  }
  void record_acceptance(BlockId id, std::uint32_t view, std::uint32_t ordinal, Seconds at);
  /// Every view's best-tip changes in event order; each view opens with genesis.
  [[nodiscard]] const std::vector<TipEntry>& tip_log() const { return tip_log_; }
  void log_tip(std::uint32_t view, BlockId tip, Seconds at) { tip_log_.push_back({at, view, tip}); }

 private:
  [[nodiscard]] Seconds timestamp(BlockId id) const {
    return facts_[id].block->header().timestamp;
  }

  BlockInterner interner_;
  std::vector<BlockFacts> facts_;  ///< by BlockId; jump == kNoBlockId until admitted
  BlockId genesis_ = kNoBlockId;
  std::uint32_t views_;
  std::vector<std::uint32_t> ordinal_;  ///< [block][view]
  std::vector<Seconds> arrival_;        ///< [block][view]
  std::vector<TipEntry> tip_log_;
};

}  // namespace bng::chain
