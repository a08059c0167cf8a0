#include "chain/block_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace bng::chain {

BlockStore::BlockStore(std::uint32_t views) : views_(views) {
  if (views == 0) throw std::invalid_argument("BlockStore: needs at least one view");
}

void BlockStore::record_acceptance(BlockId id, std::uint32_t view, std::uint32_t ordinal,
                                   Seconds at) {
  const std::size_t i = static_cast<std::size_t>(id) * views_ + view;
  if (i >= ordinal_.size()) {  // append rows up to id's
    ordinal_.resize((static_cast<std::size_t>(id) + 1) * views_, kNotAccepted);
    arrival_.resize(ordinal_.size(), 0);
  }
  ordinal_[i] = ordinal;
  arrival_[i] = at;
}

void BlockStore::hold(BlockId id, const BlockPtr& block) {
  if (id >= facts_.size())
    facts_.resize(std::max<std::size_t>(facts_.size() * 2, static_cast<std::size_t>(id) + 1));
  BlockPtr& held = facts_[id].block;
  if (held == nullptr) held = block;
  if (held != block && held->id() != block->id())
    throw std::logic_error("BlockStore: a different block under a held id");
}

const BlockPtr& BlockStore::body(BlockId id) const {
  if (id >= facts_.size() || facts_[id].block == nullptr)
    throw std::logic_error("BlockStore: no body held for this id");
  return facts_[id].block;
}

BlockId BlockStore::admit_genesis(const BlockPtr& genesis) {
  const BlockId id = interner_.intern(genesis->id());
  if (genesis_ != kNoBlockId) {
    if (id != genesis_) throw std::invalid_argument("BlockStore: a second genesis block");
    return genesis_;
  }
  if (id >= facts_.size()) facts_.resize(static_cast<std::size_t>(id) + 1);
  BlockFacts& f = facts_[id];
  f.block = genesis;
  f.jump = id;  // genesis jumps to itself
  f.epoch_key_block = id;
  genesis_ = id;
  return id;
}

void BlockStore::admit(const BlockPtr& block, BlockId id, BlockId parent, double work) {
  if (known(id)) {
    // Checked in every build: a disagreement means two trees were handed
    // different blocks or weights under one id, and their views would
    // silently diverge from here on.
    const BlockFacts& f = facts_[id];
    if ((f.block != block && f.block->id() != block->id()) || f.parent != parent ||
        f.work != work)
      throw std::logic_error("BlockStore: a tree disagrees with the stored facts");
    return;
  }
  if (!known(parent)) throw std::invalid_argument("BlockStore: unknown parent");
  hold(id, block);
  const BlockFacts& p = facts_[parent];
  BlockFacts& f = facts_[id];
  f.parent = parent;
  f.height = p.height + 1;
  f.pow_height = p.pow_height + (block->is_pow() ? 1 : 0);
  f.work = work;
  f.chain_work = p.chain_work + work;
  f.chain_tx_count = p.chain_tx_count;
  f.chain_fee_sum = p.chain_fee_sum;
  for (const auto& tx : block->txs()) {
    if (tx->is_coinbase() || tx->is_poison()) continue;
    ++f.chain_tx_count;
    f.chain_fee_sum += tx->fee;
  }
  f.epoch_key_block = block->type() == BlockType::kKey ? id : p.epoch_key_block;

  // Skew-binary skip pointer: when the parent's two previous jump gaps are
  // equal, fold them into one double-length jump; otherwise start a fresh
  // unit jump. Gap lengths depend only on depth, so all blocks at one
  // height jump to one common height.
  const BlockId j = p.jump;
  const BlockId jj = facts_[j].jump;
  const std::uint32_t gap1 = p.height - facts_[j].height;
  const std::uint32_t gap2 = facts_[j].height - facts_[jj].height;
  f.jump = (gap1 == gap2) ? jj : parent;
}

BlockId BlockStore::ancestor_at_height(BlockId id, std::uint32_t height) const {
  BlockId cur = id;
  while (facts_[cur].height > height) {
    const BlockId j = facts_[cur].jump;
    cur = facts_[j].height >= height ? j : facts_[cur].parent;
  }
  return cur;
}

bool BlockStore::is_ancestor(BlockId anc, BlockId desc) const {
  const std::uint32_t target_height = facts_[anc].height;
  if (facts_[desc].height < target_height) return false;
  return ancestor_at_height(desc, target_height) == anc;
}

std::vector<BlockId> BlockStore::path_from_genesis(BlockId tip) const {
  std::vector<BlockId> path;
  path.reserve(facts_[tip].height + 1);
  for (BlockId cur = tip; cur != kNoBlockId; cur = facts_[cur].parent) path.push_back(cur);
  std::reverse(path.begin(), path.end());
  return path;
}

BlockId BlockStore::ancestor_at_or_before(BlockId tip, Seconds time) const {
  // Timestamps are non-decreasing along a chain (a block is built after its
  // parent existed), so if the jump target still violates `time`, everything
  // between it and `cur` does too and the whole stride can be skipped.
  BlockId cur = tip;
  while (facts_[cur].parent != kNoBlockId && timestamp(cur) > time) {
    const BlockId j = facts_[cur].jump;
    cur = (j != cur && timestamp(j) > time) ? j : facts_[cur].parent;
  }
  return cur;
}

}  // namespace bng::chain
