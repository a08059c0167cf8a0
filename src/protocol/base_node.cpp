#include "protocol/base_node.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "obs/trace_ring.hpp"

namespace bng::protocol {

namespace {
chain::BlockTree::ForkChoice fork_choice_for(const chain::Params& params) {
  return params.protocol == chain::Protocol::kGhost
             ? chain::BlockTree::ForkChoice::kHeaviestSubtree
             : chain::BlockTree::ForkChoice::kHeaviestChain;
}

chain::TxPtr make_pool_tx(const SyntheticWorkload::Generator& gen, std::size_t i) {
  return chain::make_transfer(chain::Outpoint{gen.genesis_txid, static_cast<std::uint32_t>(i)},
                              gen.value, chain::address_from_tag(gen.tag_base + i), gen.fee,
                              gen.padding);
}
}  // namespace

SyntheticWorkload::SyntheticWorkload(const Generator& gen, std::size_t size)
    : gen_(gen), txs_(size) {
  if (size > 0) tx_wire_size_ = tx(0)->wire_size();
}

std::span<const chain::TxPtr> SyntheticWorkload::txs(std::size_t begin,
                                                     std::size_t count) const {
  if (begin > txs_.size() || count > txs_.size() - begin)
    throw std::out_of_range("SyntheticWorkload: read past the pool");
  if (built_.load(std::memory_order_acquire) < begin + count) build_to(begin + count);
  return {txs_.data() + begin, count};
}

void SyntheticWorkload::build_to(std::size_t end) const {
  std::lock_guard lock(build_mu_);
  std::size_t i = built_.load(std::memory_order_relaxed);
  if (i >= end) return;  // another reader built it first
  for (; i < end; ++i) {
    chain::TxPtr tx = make_pool_tx(gen_, i);
    (void)tx->id();  // caches the id and the wire size together
    txs_[i] = std::move(tx);
  }
  built_.store(end, std::memory_order_release);
}

BaseNode::BaseNode(NodeId id, net::Network& net, chain::BlockPtr genesis, NodeConfig cfg,
                   Rng rng, IBlockObserver* observer)
    : id_(id),
      net_(net),
      arena_(*net.node_state()),
      observer_(observer),
      // The tree is built before cfg_ and rng_: it reads the parameter
      // `cfg`, and only keeps &rng_ (its constructor draws nothing).
      tree_(std::move(genesis), cfg.params.tie_break, fork_choice_for(cfg.params), &rng_,
            net.block_store(), id),
      cfg_(std::move(cfg)),
      rng_(rng) {
  // The hot span (see base_node.hpp): each field a delivery reads ends
  // within the bytes Network prefetches. offsetof on a class with a vptr is
  // conditionally supported; GCC and Clang give the layout's offsets.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  constexpr std::size_t kHot = net::INode::kHotBytes;
  constexpr std::size_t kRef = sizeof(void*);  // a reference member's storage
  static_assert(offsetof(BaseNode, id_) + sizeof(id_) <= kHot);
  static_assert(offsetof(BaseNode, net_) + kRef <= kHot);
  static_assert(offsetof(BaseNode, arena_) + kRef <= kHot);
  static_assert(offsetof(BaseNode, observer_) + sizeof(observer_) <= kHot);
  static_assert(offsetof(BaseNode, orphans_) + sizeof(orphans_) <= kHot);
  // The whole tree, so its store pointer, view and best tip.
  static_assert(offsetof(BaseNode, tree_) + sizeof(tree_) <= kHot);
  static_assert(offsetof(BaseNode, cfg_.verify_fixed) + sizeof(cfg_.verify_fixed) <= kHot);
  static_assert(offsetof(BaseNode, cfg_.verify_bytes_per_second) +
                    sizeof(cfg_.verify_bytes_per_second) <= kHot);
  static_assert(offsetof(BaseNode, cfg_.trace) + sizeof(cfg_.trace) <= kHot);
#pragma GCC diagnostic pop
  if (cfg_.workload == nullptr) throw std::invalid_argument("BaseNode: needs a workload");
  tree_.set_tie_switch_prob(cfg_.params.tie_switch_prob);
}

void BaseNode::on_message(NodeId from, const net::Message& msg) {
  switch (msg.kind) {
    case kInvKind:
      handle_inv(from, msg.id);
      break;
    case kGetDataKind:
      handle_getdata(from, msg.id);
      break;
    case kBlockKind:
      handle_block_msg(from, msg.id, msg.wire_size);
      break;
    default:
      throw std::logic_error("BaseNode: unknown message type");
  }
}

void BaseNode::handle_inv(NodeId from, BlockId id) {
  if (arena_.seen(id, id_)) return;
  arena_.request(id, id_);
  net_.send(id_, from, {kGetDataKind, id, kInvWireSize});
}

void BaseNode::handle_getdata(NodeId from, BlockId id) {
  // Serve a block from the tree or the orphan buffer.
  if (tree_.contains_id(id) || std::any_of(orphans_.begin(), orphans_.end(),
                                           [id](const Orphan& o) { return o.id == id; }))
    send_block(net_, id_, from, id, tree_.store().body(id));
}

void BaseNode::handle_block_msg(NodeId from, BlockId id, std::uint32_t wire_size) {
  if (arena_.known(id, id_)) return;
  arena_.learn(id, id_);
  if (cfg_.trace != nullptr && cfg_.trace->wants(obs::kTraceEvents))
    cfg_.trace->record(obs::kTraceEvents, obs::TraceKind::kDeliver, id_, id, kNoBlockId,
                       from);
  // Model verification cost on this node's CPU, then hand to the protocol.
  const Seconds cost =
      cfg_.verify_fixed + static_cast<double>(wire_size) / cfg_.verify_bytes_per_second;
  process_after(cost, [this, id, from] { handle_held_block(id, from); });
}

void BaseNode::handle_held_block(BlockId id, NodeId from) {
  const chain::BlockPtr block = tree_.store().body(id);  // a copy: the store may grow
  handle_block(block, id, from);
}

void BaseNode::process_after(Seconds cost, net::EventQueue::Callback fn) {
  Seconds& busy = arena_.cpu_busy(id_);
  const Seconds start = std::max(now(), busy);
  busy = start + cost;
  net_.queue().schedule_at(busy, std::move(fn));
}

void BaseNode::announce(BlockId id, NodeId except) {
  // A peer that has already seen the block (known or requested) will drop
  // this inv when it arrives: "seen" never clears, and on_message is final,
  // so every BaseNode handles an inv alike. Such an inv is charged to the
  // link, but its delivery is skipped with the event order unchanged (see
  // Network::send_ignored). Only BaseNodes write the arena, so any other
  // kind of peer gets the real inv. Links come from the Network's edge
  // slots, so no send searches an adjacency row.
  const std::vector<NodeId>& peers = net_.peers(id_);
  const std::span<const std::uint32_t> edges = net_.peer_edges(id_);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i] == except) continue;
    const net::Network::Link link{id_, peers[i], edges[i]};
    if (arena_.seen(id, peers[i])) {
      net_.send_ignored(link, kInvWireSize);
    } else {
      net_.send(link, {kInvKind, id, kInvWireSize});
    }
  }
}

void BaseNode::accept_block(const chain::BlockPtr& block, BlockId id, NodeId from,
                            double work) {
  const BlockId old_tip = tree_.best_tip();
  tree_.insert(block, id, now(), work);
  arena_.learn(id, id_);
  if (cfg_.trace != nullptr && cfg_.trace->wants(obs::kTraceBlocks))
    cfg_.trace->record(obs::kTraceBlocks, obs::TraceKind::kAccept, id_, id,
                       tree_.facts(id).parent, from);
  if (should_relay(id)) announce(id, from);
  after_accept(block, id, old_tip);
  resolve_orphans(id);
}

BlockId BaseNode::ensure_parent(const chain::BlockPtr& block, BlockId id, NodeId from) {
  // A block the deployment already knows names its parent in the shared
  // store; only a block no tree has admitted yet pays the hash lookup.
  const chain::BlockStore& store = tree_.store();
  const BlockId parent_id =
      store.known(id) ? store.facts(id).parent : tree_.intern(block->header().prev);
  if (tree_.contains_id(parent_id)) return parent_id;
  orphans_.push_back(Orphan{parent_id, id, from});
  if (!arena_.seen(parent_id, id_) && from != id_) {
    arena_.request(parent_id, id_);
    net_.send(id_, from, {kGetDataKind, parent_id, kInvWireSize});
  }
  return kNoBlockId;
}

void BaseNode::resolve_orphans(BlockId parent_id) {
  // Extract the waiting children in arrival order before re-entering
  // handle_block (which may itself accept blocks and recurse here).
  std::vector<Orphan> waiting;
  for (std::size_t i = 0; i < orphans_.size();) {
    if (orphans_[i].parent == parent_id) {
      waiting.push_back(std::move(orphans_[i]));
      orphans_.erase(orphans_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (const Orphan& o : waiting) handle_held_block(o.id, o.from);
}

std::vector<chain::TxPtr> BaseNode::assemble_payload(BlockId tip, std::size_t max_bytes,
                                                     std::size_t reserve_bytes) const {
  const SyntheticWorkload& pool = *cfg_.workload;
  if (pool.tx_wire_size() == 0 || reserve_bytes >= max_bytes) return {};
  const std::size_t budget = max_bytes - reserve_bytes;
  const std::size_t start = tree_.facts(tip).chain_tx_count;
  const std::size_t count =
      std::min(budget / pool.tx_wire_size(), pool.size() > start ? pool.size() - start : 0);
  if (count == 0) return {};
  const std::span<const chain::TxPtr> txs = pool.txs(start, count);
  return {txs.begin(), txs.end()};
}

}  // namespace bng::protocol
