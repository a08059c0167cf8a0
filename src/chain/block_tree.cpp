#include "chain/block_tree.hpp"

#include <stdexcept>

namespace bng::chain {

BlockTree::BlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
                     std::shared_ptr<BlockStore> store, std::uint32_t view)
    : tie_break_(tie_break),
      fork_choice_(fork_choice),
      rng_(rng),
      store_(store != nullptr ? std::move(store) : std::make_shared<BlockStore>(1)),
      view_(view) {
  if (tie_break_ == TieBreak::kRandom && rng_ == nullptr)
    throw std::invalid_argument("BlockTree: random tie-break needs an Rng");
  const BlockId id = store_->admit_genesis(genesis);
  // A view holding genesis is another tree's.
  if (view_ >= store_->views() || contains_id(id))
    throw std::invalid_argument("BlockTree: store view out of range or taken");
  accept(id, 0);
  set_tip(id, 0);
}

std::vector<BlockId> BlockTree::accepted() const {
  std::vector<BlockId> out(size_);
  for (BlockId id = 0; id < store_->rows(); ++id)
    if (contains_id(id)) out[store_->ordinal(id, view_)] = id;
  return out;
}

std::vector<BlockTree::TipChange> BlockTree::tip_history() const {
  std::vector<TipChange> out;
  for (const BlockStore::TipEntry& e : store_->tip_log())
    if (e.view == view_) out.push_back(e);
  return out;
}

std::optional<BlockId> BlockTree::find(const Hash256& h) const {
  const BlockId id = store_->lookup(h);
  if (!contains_id(id)) return std::nullopt;
  return id;
}

void BlockTree::insert(const BlockPtr& block, BlockId id, Seconds received_at, double work) {
  if (contains_id(id)) throw std::invalid_argument("BlockTree: duplicate block");
  // A block another tree already admitted names its parent in the store:
  // only the first admission of a block looks its parent hash up.
  const BlockId parent = store_->known(id) ? store_->facts(id).parent
                                           : store_->lookup(block->header().prev);
  if (!contains_id(parent)) throw std::invalid_argument("BlockTree: unknown parent");
  store_->admit(block, id, parent, work);
  const std::uint32_t slot = size_;
  accept(id, received_at);
  if (fork_choice_ == ForkChoice::kHeaviestChain) {
    maybe_switch_tip(id, received_at);
  } else {
    add_ghost_work(slot, parent, work);
    recompute_ghost_tip(received_at);
  }
}

void BlockTree::accept(BlockId id, Seconds received_at) {
  store_->record_acceptance(id, view_, size_, received_at);
  ++size_;
  if (fork_choice_ == ForkChoice::kHeaviestSubtree) {
    ghost_.emplace_back();
    ghost_ids_.push_back(id);
  }
}

void BlockTree::add_ghost_work(std::uint32_t slot, BlockId parent, double work) {
  ghost_[store_->ordinal(parent, view_)].children.push_back(slot);
  ghost_[slot].subtree_work = work;
  if (work > 0) {
    for (BlockId a = parent; a != kNoBlockId; a = store_->facts(a).parent)
      ghost_[store_->ordinal(a, view_)].subtree_work += work;
  }
}

bool BlockTree::tie_break_switch() {
  if (tie_break_ == TieBreak::kFirstSeen) return false;
  // The unbiased default must keep the exact historical draw sequence
  // (golden digests pin it); only a biased gamma takes the uniform() path.
  if (tie_switch_prob_ == 0.5) return rng_->next_below(2) == 1;
  if (tie_switch_prob_ <= 0.0) return false;
  if (tie_switch_prob_ >= 1.0) return true;
  return rng_->uniform() < tie_switch_prob_;
}

void BlockTree::maybe_switch_tip(BlockId candidate, Seconds at) {
  const BlockFacts& cand = store_->facts(candidate);
  const BlockFacts& best = store_->facts(best_tip_);
  // A descendant of the current tip always extends it.
  if (cand.parent == best_tip_) {
    set_tip(candidate, at);
    return;
  }
  if (cand.chain_work > best.chain_work) {
    set_tip(candidate, at);
  } else if (cand.chain_work == best.chain_work && !store_->is_ancestor(candidate, best_tip_)) {
    // Equal-weight fork: paper §3 prescribes random tie-breaking — but only
    // weight-bearing candidates draw the coin. A zero-weight block (an NG
    // microblock, §4.2 "microblocks do not affect the weight of the chain")
    // extending a rival equal-work branch gives that branch no new claim to
    // the tip; re-rolling the tie per microblock would let a losing leader
    // (or a selfish miner's revealed epoch) win settled races by attrition.
    if (cand.block->work() > 0 && tie_break_switch()) set_tip(candidate, at);
  }
}

void BlockTree::recompute_ghost_tip(Seconds at) {
  // Descend from genesis (slot 0) following the heaviest subtree; then
  // extend through weightless blocks (microblocks) to the deepest descendant.
  std::uint32_t cur = 0;
  for (;;) {
    std::uint32_t best_child = kNoSlot;
    double best_work = -1;
    for (std::uint32_t c : ghost_[cur].children) {
      const double w = ghost_[c].subtree_work;
      if (w > best_work || (w == best_work && best_child != kNoSlot && tie_break_switch())) {
        best_work = w;
        best_child = c;
      }
    }
    if (best_child == kNoSlot || best_work <= 0) break;
    cur = best_child;
  }
  if (ghost_ids_[cur] != best_tip_) set_tip(ghost_ids_[cur], at);
}

void BlockTree::set_tip(BlockId tip, Seconds at) {
  best_tip_ = tip;
  store_->log_tip(view_, tip, at);
}

}  // namespace bng::chain
