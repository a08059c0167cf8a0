// Block tree and fork choice: one node's view over the deployment's blocks.
//
// Fork choice follows the paper: "the winning chain is the heaviest one ...
// with random tie-breaking" (§3), where in Bitcoin-NG "microblocks do not
// affect the weight of the chain" (§4.2). A heaviest-subtree (GHOST) mode
// supports the §9 comparison.
//
// Everything about a block that depends only on the block and its ancestry
// (height, chain work, tx and fee sums, epoch, jump pointer) lives once per
// deployment in the shared BlockStore (chain/block_store.hpp), keyed by the
// interned BlockId; so do the ancestry queries, and, in the tree's own view
// of the store, which blocks this node accepted in what order, their arrival
// times and its tip history. The tree keeps its best tip and — under GHOST
// only — child lists in arrival order and subtree work, because tie-break
// draws follow that order. Blocks are named by BlockId throughout;
// membership and arrival lookups are single array reads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_store.hpp"
#include "chain/params.hpp"
#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace bng::chain {

class BlockTree {
 public:
  enum class ForkChoice {
    kHeaviestChain,    ///< Bitcoin / Bitcoin-NG rule.
    kHeaviestSubtree,  ///< GHOST rule.
  };

  /// A best-tip change: when, to which tip (and in which store view).
  using TipChange = BlockStore::TipEntry;

  /// `store` is the deployment-wide block store shared by every tree of a
  /// deployment (see net::Network::block_store()), and `view` the one view
  /// of it this tree claims (throws if taken or out of range); a standalone
  /// tree (unit tests, benches) may pass nullptr and owns a one-view store.
  BlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
            std::shared_ptr<BlockStore> store = nullptr, std::uint32_t view = 0);
  BlockTree(BlockTree&&) noexcept = default;  ///< the view moves; no copies

  /// Gamma knob for kRandom tie-breaking (see Params::tie_switch_prob). The
  /// 0.5 default keeps the original unbiased draw path bit-for-bit.
  void set_tie_switch_prob(double p) { tie_switch_prob_ = p; }

  /// Accept a block whose parent is already in the tree, arriving at
  /// `received_at`. `work` is the PoW weight contributed (0 for
  /// microblocks). Throws if the parent is unknown, the block is a
  /// duplicate, or the store holds different facts for it.
  /// The id overload takes the pre-interned id and performs no hash-map
  /// lookup when another tree already admitted the block; the convenience
  /// overload interns internally and returns the id.
  void insert(const BlockPtr& block, BlockId id, Seconds received_at, double work);
  BlockId insert(const BlockPtr& block, Seconds received_at, double work) {
    const BlockId id = store_->intern(block->id());
    insert(block, id, received_at, work);
    return id;
  }

  /// Intern a hash through the shared store (assigns at first sight).
  BlockId intern(const Hash256& h) { return store_->intern(h); }
  [[nodiscard]] const BlockStore& store() const { return *store_; }

  // --- Membership and this node's arrival record ----------------------------
  [[nodiscard]] bool contains_id(BlockId id) const {
    return store_->ordinal(id, view_) != BlockStore::kNotAccepted;
  }
  [[nodiscard]] bool contains(const Hash256& h) const { return contains_id(store_->lookup(h)); }
  /// The block's id if this tree holds it.
  [[nodiscard]] std::optional<BlockId> find(const Hash256& h) const;
  /// When this node accepted the block (genesis: 0). Requires contains_id.
  [[nodiscard]] Seconds received(BlockId id) const { return store_->arrival(id, view_); }
  /// Accepted blocks in acceptance order, genesis first (a parent always
  /// precedes its children). Derived in O(rows), for tests and tools.
  [[nodiscard]] std::vector<BlockId> accepted() const;
  [[nodiscard]] std::size_t size() const { return size_; }

  // --- Chain facts (shared store) -------------------------------------------
  /// Facts of a block this tree holds; see BlockStore::facts for lifetime.
  [[nodiscard]] const BlockFacts& facts(BlockId id) const { return store_->facts(id); }
  [[nodiscard]] BlockId genesis() const { return store_->genesis(); }
  [[nodiscard]] BlockId best_tip() const { return best_tip_; }
  [[nodiscard]] const BlockFacts& best() const { return store_->facts(best_tip_); }

  /// History of best-tip switches, in order (first entry is genesis at 0).
  /// Derived from the store's tip log, for tests and tools.
  [[nodiscard]] std::vector<TipChange> tip_history() const;

  /// Own + descendants' work in this node's view. GHOST trees only.
  [[nodiscard]] double subtree_work(BlockId id) const {
    return ghost_[store_->ordinal(id, view_)].subtree_work;
  }

  // --- Ancestry (answered by the shared store) ------------------------------
  [[nodiscard]] bool is_ancestor(BlockId anc, BlockId desc) const {
    return store_->is_ancestor(anc, desc);
  }
  [[nodiscard]] BlockId ancestor_at_or_before(BlockId tip, Seconds time) const {
    return store_->ancestor_at_or_before(tip, time);
  }
  [[nodiscard]] std::vector<BlockId> path_from_genesis(BlockId tip) const {
    return store_->path_from_genesis(tip);
  }

 private:
  static constexpr std::uint32_t kNoSlot = BlockStore::kNotAccepted;

  /// Per-block GHOST state: it depends on which descendants this node has
  /// seen, and in what order, so it cannot live in the shared store.
  struct GhostState {
    double subtree_work = 0;
    std::vector<std::uint32_t> children;  ///< slots, in arrival order
  };

  void accept(BlockId id, Seconds received_at);  ///< as slot size()
  void add_ghost_work(std::uint32_t slot, BlockId parent, double work);
  void maybe_switch_tip(BlockId candidate, Seconds at);
  void recompute_ghost_tip(Seconds at);
  void set_tip(BlockId tip, Seconds at);
  [[nodiscard]] bool tie_break_switch();

  TieBreak tie_break_;
  double tie_switch_prob_ = 0.5;
  ForkChoice fork_choice_;
  Rng* rng_;  ///< used for random tie-breaking only; may be null for kFirstSeen
  std::shared_ptr<BlockStore> store_;
  std::uint32_t view_;
  std::uint32_t size_ = 0;  ///< blocks accepted; a slot is a view's ordinal
  BlockId best_tip_ = kNoBlockId;
  std::vector<GhostState> ghost_;   ///< slot -> GHOST state; empty otherwise
  std::vector<BlockId> ghost_ids_;  ///< slot -> BlockId; GHOST only
};

}  // namespace bng::chain
