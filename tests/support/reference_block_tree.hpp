// The per-node block tree as it was before the deployment-wide block store:
// every node kept a private `Entry` per block with its own height, jump
// pointer, chain work, tx/fee sums, epoch and subtree work, keyed by a
// per-node entry index. Kept verbatim (renamed, header-only) as the oracle
// the differential tests hold chain::BlockTree and chain::BlockStore to:
// same tips, same tip histories, same ancestry answers, same facts.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "chain/block.hpp"
#include "chain/params.hpp"
#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace bng::testing {

using chain::BlockPtr;
using chain::BlockType;
using chain::TieBreak;

class ReferenceBlockTree {
 public:
  enum class ForkChoice {
    kHeaviestChain,    ///< Bitcoin / Bitcoin-NG rule.
    kHeaviestSubtree,  ///< GHOST rule.
  };

  struct Entry {
    BlockPtr block;
    BlockId id = kNoBlockId;        ///< interned block identity
    std::int32_t parent = -1;       ///< index of parent; -1 for genesis
    std::uint32_t jump = 0;         ///< skip-ancestor index (genesis: self)
    std::uint32_t height = 0;       ///< distance from genesis (all blocks)
    std::uint32_t pow_height = 0;   ///< number of PoW blocks up to here
    double chain_work = 0;          ///< accumulated PoW work along the chain
    double subtree_work = 0;        ///< own + descendants' work (GHOST)
    Seconds received = 0;           ///< local arrival/creation time
    std::vector<std::uint32_t> children;
    // Cumulative chain statistics (genesis excluded):
    std::uint64_t chain_tx_count = 0;  ///< payload txs (excl. coinbase/poison)
    Amount chain_fee_sum = 0;          ///< payload tx fees along the chain
    /// Index of the nearest key-block ancestor (or self); genesis index when
    /// no key block exists yet. Defines the current NG epoch.
    std::uint32_t epoch_key_block = 0;
  };

  /// A record of every best-tip change, consumed by the metrics suite.
  struct TipChange {
    Seconds at;
    std::uint32_t tip;
  };

  /// No entry at this index / id.
  static constexpr std::uint32_t kNoIndex = UINT32_MAX;

  /// `interner` is the experiment-wide id assigner shared by every tree of a
  /// deployment (see net::Network::interner()); a standalone tree (unit
  /// tests, benches) may pass nullptr and owns a private one.
  ReferenceBlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
            std::shared_ptr<BlockInterner> interner = nullptr);

  /// Gamma knob for kRandom tie-breaking (see Params::tie_switch_prob). The
  /// 0.5 default keeps the original unbiased draw path bit-for-bit.
  void set_tie_switch_prob(double p) { tie_switch_prob_ = p; }

  /// Insert a block whose parent is already in the tree. `work` is the PoW
  /// weight contributed (0 for microblocks). Returns the new entry's index.
  /// Throws if the parent is unknown or the block is a duplicate.
  /// The two-argument overload takes the pre-interned id and performs no
  /// hash-map lookup at all; the convenience overload interns internally
  /// (one lookup — the previous code paid three: contains + find + emplace).
  std::uint32_t insert(const BlockPtr& block, BlockId id, Seconds received_at, double work);
  std::uint32_t insert(const BlockPtr& block, Seconds received_at, double work) {
    return insert(block, interner_->intern(block->id()), received_at, work);
  }

  /// Intern a hash through the tree's shared interner (assigns at first
  /// sight; cheap pass-through for already-seen hashes).
  BlockId intern(const Hash256& h) { return interner_->intern(h); }
  [[nodiscard]] const BlockInterner& interner() const { return *interner_; }
  [[nodiscard]] const std::shared_ptr<BlockInterner>& interner_ptr() const {
    return interner_;
  }

  // --- Id-indexed fast path (no hashing) ------------------------------------
  [[nodiscard]] bool contains_id(BlockId id) const { return index_of_id(id) != kNoIndex; }
  [[nodiscard]] std::uint32_t index_of_id(BlockId id) const {
    return id < index_by_id_.size() ? index_by_id_[id] : kNoIndex;
  }

  // --- Hash-keyed convenience (single interner lookup) ----------------------
  [[nodiscard]] bool contains(const Hash256& id) const {
    return index_of_id(interner_->lookup(id)) != kNoIndex;
  }
  [[nodiscard]] std::optional<std::uint32_t> find(const Hash256& id) const;

  [[nodiscard]] const Entry& entry(std::uint32_t idx) const { return entries_[idx]; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] std::uint32_t best_tip() const { return best_tip_; }
  [[nodiscard]] const Entry& best_entry() const { return entries_[best_tip_]; }
  static constexpr std::uint32_t kGenesisIndex = 0;

  /// Is `anc` an ancestor of (or equal to) `desc`? O(log height).
  [[nodiscard]] bool is_ancestor(std::uint32_t anc, std::uint32_t desc) const;

  /// Ancestor of `idx` at exactly `height` (requires height <= idx's height).
  /// O(log height) via jump pointers.
  [[nodiscard]] std::uint32_t ancestor_at_height(std::uint32_t idx,
                                                 std::uint32_t height) const;

  /// Indices from genesis to `tip`, inclusive.
  [[nodiscard]] std::vector<std::uint32_t> path_from_genesis(std::uint32_t tip) const;

  /// Last block on the path to `tip` whose block timestamp is <= `time`
  /// (used by the consensus-delay metric). Accelerated by jump pointers;
  /// chain timestamps are non-decreasing root-to-tip (a child is built after
  /// its parent exists), which makes the skip sound.
  [[nodiscard]] std::uint32_t ancestor_at_or_before(std::uint32_t tip, Seconds time) const;

  /// History of best-tip switches, in order (first entry is genesis at 0).
  [[nodiscard]] const std::vector<TipChange>& tip_history() const { return tip_history_; }

 private:
  void maybe_switch_tip(std::uint32_t candidate, Seconds at);
  void recompute_ghost_tip(Seconds at);
  void set_tip(std::uint32_t tip, Seconds at);
  [[nodiscard]] bool tie_break_switch();

  TieBreak tie_break_;
  double tie_switch_prob_ = 0.5;
  ForkChoice fork_choice_;
  Rng* rng_;  ///< used for random tie-breaking only; may be null for kFirstSeen
  std::shared_ptr<BlockInterner> interner_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_by_id_;  ///< BlockId -> entry index / kNoIndex
  std::uint32_t best_tip_ = 0;
  std::vector<TipChange> tip_history_;
};


inline ReferenceBlockTree::ReferenceBlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
                     std::shared_ptr<BlockInterner> interner)
    : tie_break_(tie_break),
      fork_choice_(fork_choice),
      rng_(rng),
      interner_(interner != nullptr ? std::move(interner)
                                    : std::make_shared<BlockInterner>()) {
  if (tie_break_ == TieBreak::kRandom && rng_ == nullptr)
    throw std::invalid_argument("BlockTree: random tie-break needs an Rng");
  Entry e;
  e.block = std::move(genesis);
  e.id = interner_->intern(e.block->id());
  e.parent = -1;
  e.jump = 0;  // genesis jumps to itself
  e.received = 0;
  if (e.id >= index_by_id_.size()) index_by_id_.resize(e.id + 1, kNoIndex);
  index_by_id_[e.id] = 0;
  entries_.push_back(std::move(e));
  tip_history_.push_back({0.0, 0});
}

inline std::optional<std::uint32_t> ReferenceBlockTree::find(const Hash256& id) const {
  const std::uint32_t idx = index_of_id(interner_->lookup(id));
  if (idx == kNoIndex) return std::nullopt;
  return idx;
}

inline std::uint32_t ReferenceBlockTree::insert(const BlockPtr& block, BlockId id, Seconds received_at,
                                double work) {
  if (contains_id(id)) throw std::invalid_argument("BlockTree: duplicate block");
  const std::uint32_t parent = index_of_id(interner_->lookup(block->header().prev));
  if (parent == kNoIndex) throw std::invalid_argument("BlockTree: unknown parent");

  Entry e;
  e.block = block;
  e.id = id;
  e.parent = static_cast<std::int32_t>(parent);
  e.height = entries_[parent].height + 1;
  e.pow_height = entries_[parent].pow_height + (block->is_pow() ? 1 : 0);
  e.chain_work = entries_[parent].chain_work + work;
  e.subtree_work = work;
  e.received = received_at;
  e.chain_tx_count = entries_[parent].chain_tx_count;
  e.chain_fee_sum = entries_[parent].chain_fee_sum;
  for (const auto& tx : block->txs()) {
    if (tx->is_coinbase() || tx->is_poison()) continue;
    ++e.chain_tx_count;
    e.chain_fee_sum += tx->fee;
  }
  e.epoch_key_block = block->type() == BlockType::kKey
                          ? static_cast<std::uint32_t>(entries_.size())
                          : entries_[parent].epoch_key_block;

  // Skew-binary skip pointer: when the parent's two previous jump gaps are
  // equal, fold them into one double-length jump; otherwise start a fresh
  // unit jump. Gap lengths depend only on depth, so all entries at one
  // height jump to one common height.
  {
    const std::uint32_t j = entries_[parent].jump;
    const std::uint32_t jj = entries_[j].jump;
    const std::uint32_t gap1 = entries_[parent].height - entries_[j].height;
    const std::uint32_t gap2 = entries_[j].height - entries_[jj].height;
    e.jump = (gap1 == gap2) ? jj : parent;
  }

  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(e));
  entries_[parent].children.push_back(idx);
  if (id >= index_by_id_.size()) {
    index_by_id_.resize(std::max<std::size_t>(index_by_id_.size() * 2,
                                              static_cast<std::size_t>(id) + 1),
                        kNoIndex);
  }
  index_by_id_[id] = idx;

  // Propagate subtree work up for GHOST.
  if (work > 0) {
    for (std::int32_t a = static_cast<std::int32_t>(parent); a != -1;
         a = entries_[static_cast<std::uint32_t>(a)].parent)
      entries_[static_cast<std::uint32_t>(a)].subtree_work += work;
  }

  if (fork_choice_ == ForkChoice::kHeaviestChain) {
    maybe_switch_tip(idx, received_at);
  } else {
    recompute_ghost_tip(received_at);
  }
  return idx;
}

inline bool ReferenceBlockTree::tie_break_switch() {
  if (tie_break_ == TieBreak::kFirstSeen) return false;
  // The unbiased default must keep the exact historical draw sequence
  // (golden digests pin it); only a biased gamma takes the uniform() path.
  if (tie_switch_prob_ == 0.5) return rng_->next_below(2) == 1;
  if (tie_switch_prob_ <= 0.0) return false;
  if (tie_switch_prob_ >= 1.0) return true;
  return rng_->uniform() < tie_switch_prob_;
}

inline void ReferenceBlockTree::maybe_switch_tip(std::uint32_t candidate, Seconds at) {
  const Entry& cand = entries_[candidate];
  const Entry& best = entries_[best_tip_];
  // A descendant of the current tip always extends it.
  if (cand.parent >= 0 && static_cast<std::uint32_t>(cand.parent) == best_tip_) {
    set_tip(candidate, at);
    return;
  }
  if (cand.chain_work > best.chain_work) {
    set_tip(candidate, at);
  } else if (cand.chain_work == best.chain_work && !is_ancestor(candidate, best_tip_)) {
    // Equal-weight fork: paper §3 prescribes random tie-breaking — but only
    // weight-bearing candidates draw the coin. A zero-weight block (an NG
    // microblock, §4.2 "microblocks do not affect the weight of the chain")
    // extending a rival equal-work branch gives that branch no new claim to
    // the tip; re-rolling the tie per microblock would let a losing leader
    // (or a selfish miner's revealed epoch) win settled races by attrition.
    if (cand.block->work() > 0 && tie_break_switch()) set_tip(candidate, at);
  }
}

inline void ReferenceBlockTree::recompute_ghost_tip(Seconds at) {
  // Descend from genesis following the heaviest subtree; then extend through
  // weightless blocks (microblocks) to the deepest descendant.
  std::uint32_t cur = kGenesisIndex;
  for (;;) {
    const Entry& e = entries_[cur];
    std::uint32_t best_child = UINT32_MAX;
    double best_work = -1;
    for (std::uint32_t c : e.children) {
      double w = entries_[c].subtree_work;
      if (w > best_work || (w == best_work && best_child != UINT32_MAX && tie_break_switch())) {
        best_work = w;
        best_child = c;
      }
    }
    if (best_child == UINT32_MAX || best_work <= 0) break;
    cur = best_child;
  }
  if (cur != best_tip_) set_tip(cur, at);
}

inline void ReferenceBlockTree::set_tip(std::uint32_t tip, Seconds at) {
  best_tip_ = tip;
  tip_history_.push_back({at, tip});
}

inline std::uint32_t ReferenceBlockTree::ancestor_at_height(std::uint32_t idx, std::uint32_t height) const {
  std::uint32_t cur = idx;
  while (entries_[cur].height > height) {
    const std::uint32_t j = entries_[cur].jump;
    cur = entries_[j].height >= height ? j
                                       : static_cast<std::uint32_t>(entries_[cur].parent);
  }
  return cur;
}

inline bool ReferenceBlockTree::is_ancestor(std::uint32_t anc, std::uint32_t desc) const {
  const std::uint32_t target_height = entries_[anc].height;
  if (entries_[desc].height < target_height) return false;
  return ancestor_at_height(desc, target_height) == anc;
}

inline std::vector<std::uint32_t> ReferenceBlockTree::path_from_genesis(std::uint32_t tip) const {
  std::vector<std::uint32_t> path;
  path.reserve(entries_[tip].height + 1);
  for (std::int32_t cur = static_cast<std::int32_t>(tip); cur != -1;
       cur = entries_[static_cast<std::uint32_t>(cur)].parent)
    path.push_back(static_cast<std::uint32_t>(cur));
  std::reverse(path.begin(), path.end());
  return path;
}

inline std::uint32_t ReferenceBlockTree::ancestor_at_or_before(std::uint32_t tip, Seconds time) const {
  // Timestamps are non-decreasing along a chain (a block is built after its
  // parent existed), so if the jump target still violates `time`, everything
  // between it and `cur` does too and the whole stride can be skipped.
  std::uint32_t cur = tip;
  while (entries_[cur].parent != -1 && entries_[cur].block->header().timestamp > time) {
    const std::uint32_t j = entries_[cur].jump;
    cur = (j != cur && entries_[j].block->header().timestamp > time)
              ? j
              : static_cast<std::uint32_t>(entries_[cur].parent);
  }
  return cur;
}

}  // namespace bng::testing
