#include "sim/trace.hpp"

#include "obs/trace_ring.hpp"

namespace bng::sim {

namespace {
constexpr std::uint32_t kNoRecord = UINT32_MAX;
}  // namespace

TraceRecorder::TraceRecorder(chain::BlockPtr genesis,
                             const std::shared_ptr<chain::BlockStore>& store)
    : tree_(std::move(genesis), chain::TieBreak::kFirstSeen,
            chain::BlockTree::ForkChoice::kHeaviestChain, nullptr, store,
            store != nullptr ? store->views() - 1 : 0) {}

void TraceRecorder::on_block_generated(const chain::BlockPtr& block, NodeId miner,
                                       Seconds at) {
  const BlockId id = tree_.intern(block->id());
  if (id >= index_by_id_.size()) index_by_id_.resize(id + 1, kNoRecord);
  if (index_by_id_[id] == kNoRecord)
    index_by_id_[id] = static_cast<std::uint32_t>(generated_.size());
  generated_.push_back(Generated{block, id, miner, at});
  if (block->type() == chain::BlockType::kMicro)
    ++micro_blocks_;
  else
    ++pow_blocks_;
  // A miner can only extend a block that exists, so the parent is always
  // already present in the reference tree.
  if (!tree_.contains_id(id)) tree_.insert(block, id, at, block->work());
  if (ring_ != nullptr && ring_->wants(obs::kTraceBlocks))
    ring_->record(obs::kTraceBlocks, obs::TraceKind::kGenerate, miner, id,
                  tree_.store().lookup(block->header().prev));
}

void TraceRecorder::on_fraud_detected(NodeId detector, const Hash256& accused, Seconds at) {
  frauds_.push_back(FraudEvent{detector, accused, at});
  if (ring_ != nullptr && ring_->wants(obs::kTraceAdversary))
    ring_->record(obs::kTraceAdversary, obs::TraceKind::kFraud, detector,
                  tree_.store().lookup(accused));
}

std::optional<std::size_t> TraceRecorder::find(const Hash256& id) const {
  return find_by_id(tree_.store().lookup(id));
}

std::optional<std::size_t> TraceRecorder::find_by_id(BlockId id) const {
  if (id >= index_by_id_.size() || index_by_id_[id] == kNoRecord) return std::nullopt;
  return index_by_id_[id];
}

}  // namespace bng::sim
