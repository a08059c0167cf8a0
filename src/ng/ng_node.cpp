#include "ng/ng_node.hpp"

#include <algorithm>

#include "chain/validation.hpp"
#include "obs/trace_ring.hpp"

namespace bng::ng {

namespace {
/// Bytes reserved in a key block for header + coinbase.
constexpr std::size_t kKeyBlockOverhead = 400;
/// Bytes reserved in a microblock for the header.
constexpr std::size_t kMicroBlockOverhead = 250;
}  // namespace

NgNode::NgNode(NodeId id, net::Network& net, chain::BlockPtr genesis,
               protocol::NodeConfig cfg, Rng rng, protocol::IBlockObserver* observer)
    : BaseNode(id, net, std::move(genesis), std::move(cfg), rng, observer) {}

const NgNode::LeaderKeys& NgNode::keys() const {
  if (!keys_) {
    const auto sk = crypto::PrivateKey::from_seed(0x6e670000ull + id_);
    const auto pk = sk.public_key();
    keys_ = LeaderKeys{sk, pk, chain::address_of(pk)};
  }
  return *keys_;
}

bool NgNode::is_leader() const {
  if (my_latest_key_block_ == kNoBlockId) return false;
  return tree_.best().epoch_key_block == my_latest_key_block_;
}

void NgNode::on_mining_win(double work) {
  chain::BlockPtr block = build_key_block(tree_.best_tip(), work);
  ++key_blocks_mined_;
  const BlockId block_id = tree_.intern(block->id());
  my_latest_key_block_ = block_id;
  if (observer_ != nullptr) observer_->on_block_generated(block, id_, now());
  accept_block(block, block_id, id_, work);
  // Begin (or continue) emitting microblocks for the new epoch.
  schedule_microblock_tick();
}

chain::BlockPtr NgNode::build_key_block(BlockId tip, double work) {
  const chain::BlockFacts& tip_facts = tree_.facts(tip);
  const chain::BlockFacts& prev_epoch = tree_.facts(tip_facts.epoch_key_block);
  const LeaderKeys& me = keys();

  // Remuneration (§4.4): the coinbase mints the subsidy and distributes the
  // previous epoch's fees 40% to its leader, 60% to this key block's miner.
  auto coinbase = std::make_shared<chain::Transaction>();
  coinbase->coinbase_height = tip_facts.pow_height + 1;
  const Amount epoch_fees = tip_facts.chain_fee_sum - prev_epoch.chain_fee_sum;
  const auto leader_share =
      static_cast<Amount>(cfg_.params.leader_fee_fraction * static_cast<double>(epoch_fees));
  const Amount next_share = epoch_fees - leader_share;
  if (prev_epoch.block->header().leader_key && leader_share > 0) {
    const Hash256 prev_leader = chain::address_of(*prev_epoch.block->header().leader_key);
    coinbase->outputs.push_back(chain::TxOutput{leader_share, prev_leader});
    coinbase->outputs.push_back(
        chain::TxOutput{cfg_.params.block_subsidy + next_share, me.address});
  } else {
    // Genesis epoch (or zero fees): everything to this miner.
    coinbase->outputs.push_back(
        chain::TxOutput{cfg_.params.block_subsidy + epoch_fees, me.address});
  }

  std::vector<chain::TxPtr> txs{std::move(coinbase)};
  chain::BlockHeader header;
  header.type = chain::BlockType::kKey;
  header.prev = tip_facts.block->id();
  header.timestamp = now();
  header.merkle_root = chain::compute_merkle_root(txs);
  header.nonce = rng_.next();  // regtest-style: difficulty check skipped
  header.leader_key = me.pk;
  return std::make_shared<chain::Block>(std::move(header), std::move(txs), id_, work);
}

void NgNode::schedule_microblock_tick() {
  if (tick_scheduled_) return;
  tick_scheduled_ = true;
  net_.queue().schedule_in(cfg_.params.microblock_interval, [this] { microblock_tick(); });
}

void NgNode::microblock_tick() {
  tick_scheduled_ = false;
  if (!is_leader()) return;  // leadership lost: stop producing (§4.2)
  chain::BlockPtr block = build_microblock(tree_.best_tip());
  ++microblocks_generated_;
  const BlockId block_id = tree_.intern(block->id());
  if (observer_ != nullptr) observer_->on_block_generated(block, id_, now());
  accept_block(block, block_id, id_, /*work=*/0.0);
  record_poison_sites(*block, block_id);  // own placements count too
  schedule_microblock_tick();
}

chain::BlockPtr NgNode::build_microblock(BlockId tip, std::uint64_t salt) {
  std::vector<chain::TxPtr> txs;

  // Place any poison transactions we hold evidence for (§4.5): allowed once
  // per cheater, only after the accused's epoch ended, and only while the
  // revenue is still revocable on this chain. Evidence that cannot be placed
  // yet (e.g. the fork is not visible from the current chain) is retried on
  // the next microblock.
  std::deque<FraudEvidence> retry;
  std::vector<Hash256> placed_now;  // leaders poisoned in THIS block
  while (!pending_frauds_.empty()) {
    FraudEvidence evidence = std::move(pending_frauds_.front());
    pending_frauds_.pop_front();
    const auto accused_id = tree_.find(evidence.accused_key_block);
    if (!accused_id) {
      retry.push_back(std::move(evidence));  // accused epoch not seen yet
      continue;
    }
    const auto& accused_key = tree_.facts(*accused_id).block->header().leader_key;
    if (!accused_key) continue;  // malformed evidence: not a leader epoch
    const Hash256 accused_leader = chain::address_of(*accused_key);
    if (accused_leader == keys().address) continue;  // self
    if (chain_has_poison_for(accused_leader, tip) ||
        std::find(placed_now.begin(), placed_now.end(), accused_leader) !=
            placed_now.end()) {
      // One poison per cheater per chain: keep the evidence — if the chain
      // carrying that poison loses, this node can still re-place it.
      retry.push_back(std::move(evidence));
      continue;
    }
    const Amount revocable = compute_revocable(tree_, tip, evidence.accused_key_block);
    const chain::BlockHeader* pruned = select_pruned_header(tree_, tip, evidence);
    bool placed = false;
    if (revocable > 0 && pruned != nullptr) {
      auto probe = make_poison_tx(evidence.accused_key_block, *pruned, keys().address, 0);
      if (check_poison(tree_, tip, *probe->poison, cfg_.verify_signatures).ok) {
        const auto bounty = static_cast<Amount>(
            cfg_.params.poison_reward_fraction * static_cast<double>(revocable));
        txs.push_back(
            make_poison_tx(evidence.accused_key_block, *pruned, keys().address, bounty));
        placed_now.push_back(accused_leader);
        ++poisons_placed_;
        if (cfg_.trace != nullptr && cfg_.trace->wants(obs::kTraceAdversary))
          cfg_.trace->record(obs::kTraceAdversary, obs::TraceKind::kPoison, id_,
                             tree_.store().lookup(evidence.accused_key_block));
        placed = true;
      }
    }
    if (!placed) retry.push_back(std::move(evidence));
  }
  pending_frauds_ = std::move(retry);

  std::size_t poison_bytes = 0;
  for (const auto& tx : txs) poison_bytes += tx->wire_size();
  std::vector<chain::TxPtr> payload = assemble_payload(
      tip, cfg_.params.max_microblock_size, kMicroBlockOverhead + poison_bytes);
  txs.insert(txs.end(), payload.begin(), payload.end());

  chain::BlockHeader header;
  header.type = chain::BlockType::kMicro;
  header.prev = tree_.facts(tip).block->id();
  header.timestamp = now();
  header.merkle_root = chain::compute_merkle_root(txs);
  header.nonce = salt;
  sign_header(header);
  return std::make_shared<chain::Block>(std::move(header), std::move(txs), id_, 0.0);
}

void NgNode::sign_header(chain::BlockHeader& header) const {
  header.signature = crypto::sign(keys().sk, header.signing_hash());
}

chain::BlockPtr NgNode::forge_microblock(const Hash256& parent_id, std::uint64_t salt) {
  auto parent = tree_.find(parent_id);
  if (!parent) throw std::invalid_argument("forge_microblock: unknown parent");
  chain::BlockPtr block = build_microblock(*parent, salt);
  ++microblocks_generated_;
  const BlockId block_id = tree_.intern(block->id());
  if (observer_ != nullptr) observer_->on_block_generated(block, id_, now());
  // Bypass normal acceptance: announce only (the forger may withhold it from
  // its own tree to keep its view consistent).
  arena_.learn(block_id, id_);
  if (!tree_.contains_id(block_id)) {
    // Insert so we can serve getdata for it.
    if (tree_.contains(block->header().prev)) tree_.insert(block, block_id, now(), 0.0);
  }
  announce(block_id, id_);
  return block;
}

void NgNode::note_microblock(const chain::BlockPtr& block, BlockId id, BlockId parent,
                             NodeId from) {
  const BlockId epoch = tree_.facts(parent).epoch_key_block;
  if (auto first = detector_.observe(epoch, parent, id)) {
    // The first sibling was admitted right after its own observation, so
    // the store holds its header.
    const Hash256& epoch_id = tree_.facts(epoch).block->id();
    if (observer_ != nullptr) observer_->on_fraud_detected(id_, epoch_id, now());
    pending_frauds_.push_back(
        FraudEvidence{epoch_id, tree_.facts(*first).block->header(), block->header()});
    // Gossip the proof: this conflicting sibling sits off the active chain,
    // so the normal relay policy would strand it at the cheater's direct
    // neighbours — but the evidence must reach a *future leader* to be
    // placed (§4.5). Each receiver detects the same fraud and re-announces
    // once (the detector reports one conflict per epoch), flooding the
    // proof exactly one inv per node.
    announce(id, from);
  }
  // Record poisons other nodes placed: without this, every evidence-holding
  // node would place its own poison against the same cheater and the chain
  // would fail ledger replay. Any microblock we build extends a chain whose
  // poisons we have all accepted (and thus recorded), so the
  // at-most-one-per-cheater invariant holds on every chain path.
  record_poison_sites(*block, id);
}

void NgNode::record_poison_sites(const chain::Block& block, BlockId id) {
  for (const auto& tx : block.txs()) {
    if (!tx->poison) continue;
    const auto accused = tree_.find(tx->poison->accused_key_block);
    if (!accused) continue;
    const auto& key = tree_.facts(*accused).block->header().leader_key;
    if (!key) continue;
    auto& sites = poison_sites_[chain::address_of(*key)];
    if (std::find(sites.begin(), sites.end(), id) == sites.end()) sites.push_back(id);
  }
}

bool NgNode::chain_has_poison_for(const Hash256& leader_addr, BlockId tip) const {
  const auto it = poison_sites_.find(leader_addr);
  if (it == poison_sites_.end()) return false;
  for (const BlockId site : it->second)
    if (tree_.contains_id(site) && tree_.is_ancestor(site, tip)) return true;
  return false;
}

void NgNode::handle_block(const chain::BlockPtr& block, BlockId id, NodeId from) {
  if (tree_.contains_id(id)) return;
  if (auto r = chain::check_size(*block, cfg_.params); !r.ok) return;

  switch (block->type()) {
    case chain::BlockType::kKey: {
      if (auto r = chain::check_key_block(*block); !r.ok) return;
      if (ensure_parent(block, id, from) == kNoBlockId) return;
      accept_block(block, id, from, block->work());
      break;
    }
    case chain::BlockType::kMicro: {
      const BlockId parent = ensure_parent(block, id, from);
      if (parent == kNoBlockId) return;
      const chain::BlockFacts& parent_facts = tree_.facts(parent);
      const chain::Block& epoch = *tree_.facts(parent_facts.epoch_key_block).block;
      if (!epoch.header().leader_key) return;  // no leader yet: invalid
      auto r = chain::check_microblock(*block, *epoch.header().leader_key,
                                       parent_facts.block->header().timestamp, now(),
                                       cfg_.params, cfg_.verify_signatures);
      if (!r.ok) return;
      note_microblock(block, id, parent, from);
      accept_block(block, id, from, /*work=*/0.0);
      break;
    }
    case chain::BlockType::kPow:
      return;  // Bitcoin blocks are not valid on an NG chain.
  }
}

}  // namespace bng::ng
