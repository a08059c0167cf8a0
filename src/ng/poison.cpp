#include "ng/poison.hpp"

#include <algorithm>

#include "crypto/ecdsa.hpp"

namespace bng::ng {

std::optional<BlockId> EquivocationDetector::observe(BlockId epoch, BlockId parent,
                                                    BlockId id) {
  if (parent >= first_child_.size()) first_child_.resize(parent + 1, kNoBlockId);
  BlockId& first = first_child_[parent];
  if (first == kNoBlockId) first = id;
  if (first == id) return std::nullopt;
  if (std::ranges::find(reported_epochs_, epoch) != reported_epochs_.end()) return std::nullopt;
  reported_epochs_.push_back(epoch);
  return first;
}

const chain::BlockHeader& FraudEvidence::pruned_header(const chain::BlockTree& tree,
                                                       BlockId tip) const {
  const chain::BlockHeader* losing = select_pruned_header(tree, tip, *this);
  return losing != nullptr ? *losing : header_b;
}

const chain::BlockHeader* select_pruned_header(const chain::BlockTree& tree, BlockId tip,
                                               const FraudEvidence& evidence) {
  auto on_chain = [&](const chain::BlockHeader& h) {
    auto id = tree.find(h.id());
    return id && tree.is_ancestor(*id, tip);
  };
  if (!on_chain(evidence.header_b)) return &evidence.header_b;
  if (!on_chain(evidence.header_a)) return &evidence.header_a;
  return nullptr;
}

Amount compute_revocable(const chain::BlockTree& tree, BlockId tip,
                         const Hash256& accused_key_block) {
  auto accused_id = tree.find(accused_key_block);
  if (!accused_id || !tree.is_ancestor(*accused_id, tip)) return 0;
  const chain::Block& accused = *tree.facts(*accused_id).block;
  if (!accused.header().leader_key) return 0;
  const Hash256 leader_addr = chain::address_of(*accused.header().leader_key);

  Amount revocable = 0;
  auto add_coinbase_outputs = [&](const chain::Block& block) {
    if (block.txs().empty() || !block.txs()[0]->is_coinbase()) return;
    for (const auto& out : block.txs()[0]->outputs)
      if (out.owner == leader_addr) revocable += out.value;
  };
  add_coinbase_outputs(accused);
  // Find the next key block on the path to tip (it pays the 40% fee share).
  BlockId cur = tip;
  BlockId next_key = kNoBlockId;
  while (cur != *accused_id) {
    if (tree.facts(cur).block->type() == chain::BlockType::kKey) next_key = cur;
    cur = tree.facts(cur).parent;
  }
  if (next_key != kNoBlockId) add_coinbase_outputs(*tree.facts(next_key).block);
  return revocable;
}

chain::TxPtr make_poison_tx(const Hash256& accused_key_block,
                            const chain::BlockHeader& pruned_header,
                            const Hash256& poisoner_address, Amount bounty) {
  auto tx = std::make_shared<chain::Transaction>();
  ByteWriter w;
  pruned_header.serialize(w);
  chain::PoisonPayload payload;
  payload.accused_key_block = accused_key_block;
  payload.pruned_header = w.data();
  payload.pruned_header_id = pruned_header.id();
  tx->poison = std::move(payload);
  tx->outputs.push_back(chain::TxOutput{bounty, poisoner_address});
  return tx;
}

chain::ValidationResult check_poison(const chain::BlockTree& tree, BlockId tip,
                                     const chain::PoisonPayload& payload,
                                     bool verify_signature) {
  using chain::ValidationResult;
  // 1. Accused key block on the chain.
  auto accused_id = tree.find(payload.accused_key_block);
  if (!accused_id || !tree.is_ancestor(*accused_id, tip))
    return ValidationResult::fail("accused key block not on chain");
  const chain::Block& accused = *tree.facts(*accused_id).block;
  if (accused.type() != chain::BlockType::kKey || !accused.header().leader_key)
    return ValidationResult::fail("accused block is not a key block");

  // 2. Parse the pruned header; must be a microblock.
  chain::BlockHeader pruned;
  try {
    ByteReader r(payload.pruned_header);
    pruned = chain::BlockHeader::deserialize(r);
  } catch (const std::exception&) {
    return ValidationResult::fail("pruned header does not parse");
  }
  if (pruned.type != chain::BlockType::kMicro)
    return ValidationResult::fail("pruned header is not a microblock");
  if (pruned.id() != payload.pruned_header_id)
    return ValidationResult::fail("pruned header id mismatch");
  if (!pruned.signature) return ValidationResult::fail("pruned header unsigned");
  if (verify_signature &&
      !crypto::verify(*accused.header().leader_key, pruned.signing_hash(),
                      *pruned.signature))
    return ValidationResult::fail("pruned header not signed by accused leader");

  // 3. The pruned header must not be on the chain.
  if (auto pruned_id = tree.find(payload.pruned_header_id);
      pruned_id && tree.is_ancestor(*pruned_id, tip))
    return ValidationResult::fail("claimed pruned header is on the main chain");

  // 4. Equivocation: the chain extends the same predecessor with a different
  //    microblock of the accused epoch.
  auto prev_id = tree.find(pruned.prev);
  if (!prev_id || !tree.is_ancestor(*prev_id, tip))
    return ValidationResult::fail("pruned header's predecessor not on chain");
  // Find the chain's successor of prev on the path to tip.
  BlockId successor = kNoBlockId;
  for (BlockId cur = tip; cur != *prev_id; cur = tree.facts(cur).parent) successor = cur;
  if (successor == kNoBlockId)
    return ValidationResult::fail("predecessor is the tip; no equivocation shown");
  const chain::BlockFacts& succ = tree.facts(successor);
  if (succ.block->type() != chain::BlockType::kMicro ||
      succ.epoch_key_block != *accused_id)
    return ValidationResult::fail("chain successor is not an accused-epoch microblock");
  if (succ.block->id() == payload.pruned_header_id)
    return ValidationResult::fail("headers identical; no fork");
  return {};
}

}  // namespace bng::ng
