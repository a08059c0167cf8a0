#include "chain/block_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace bng::chain {

BlockTree::BlockTree(BlockPtr genesis, TieBreak tie_break, ForkChoice fork_choice, Rng* rng,
                     std::shared_ptr<BlockStore> store)
    : tie_break_(tie_break),
      fork_choice_(fork_choice),
      rng_(rng),
      store_(store != nullptr ? std::move(store) : std::make_shared<BlockStore>()) {
  if (tie_break_ == TieBreak::kRandom && rng_ == nullptr)
    throw std::invalid_argument("BlockTree: random tie-break needs an Rng");
  const BlockId id = store_->admit_genesis(genesis);
  add_slot(id, 0);
  best_tip_ = id;
  tip_history_.push_back({0.0, id});
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
  add_slot(id, received_at);
  if (fork_choice_ == ForkChoice::kHeaviestChain) {
    maybe_switch_tip(id, received_at);
  } else {
    add_ghost_work(slot_[id], parent, work);
    recompute_ghost_tip(received_at);
  }
}

void BlockTree::add_slot(BlockId id, Seconds received_at) {
  if (id >= slot_.size()) {
    slot_.resize(std::max<std::size_t>(slot_.size() * 2, static_cast<std::size_t>(id) + 1),
                 kNoSlot);
  }
  slot_[id] = static_cast<std::uint32_t>(accepted_.size());
  accepted_.push_back(id);
  received_.push_back(received_at);
  if (fork_choice_ == ForkChoice::kHeaviestSubtree) ghost_.emplace_back();
}

void BlockTree::add_ghost_work(std::uint32_t slot, BlockId parent, double work) {
  ghost_[slot_[parent]].children.push_back(slot);
  ghost_[slot].subtree_work = work;
  if (work > 0) {
    for (BlockId a = parent; a != kNoBlockId; a = store_->facts(a).parent)
      ghost_[slot_[a]].subtree_work += work;
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
  if (accepted_[cur] != best_tip_) set_tip(accepted_[cur], at);
}

void BlockTree::set_tip(BlockId tip, Seconds at) {
  best_tip_ = tip;
  tip_history_.push_back({at, tip});
}

}  // namespace bng::chain
