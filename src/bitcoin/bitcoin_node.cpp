#include "bitcoin/bitcoin_node.hpp"

#include "chain/validation.hpp"

namespace bng::bitcoin {

namespace {
/// Bytes reserved in a block for the header and coinbase transaction.
constexpr std::size_t kBlockOverhead = 300;
}  // namespace

BitcoinNode::BitcoinNode(NodeId id, net::Network& net, chain::BlockPtr genesis,
                         protocol::NodeConfig cfg, Rng rng,
                         protocol::IBlockObserver* observer)
    : BaseNode(id, net, std::move(genesis), std::move(cfg), rng, observer) {}

const Hash256& BitcoinNode::reward_address() const {
  if (!reward_address_) reward_address_ = chain::address_from_tag(0x626974ull << 32 | id_);
  return *reward_address_;
}

void BitcoinNode::on_mining_win(double work) {
  chain::BlockPtr block = build_block(tree_.best_tip(), work);
  ++blocks_mined_;
  const BlockId block_id = tree_.intern(block->id());
  if (observer_ != nullptr) observer_->on_block_generated(block, id_, now());
  accept_block(block, block_id, id_, work);
}

chain::BlockPtr BitcoinNode::build_block(BlockId tip, double work) {
  const chain::BlockFacts& tip_facts = tree_.facts(tip);
  std::vector<chain::TxPtr> txs =
      assemble_payload(tip, cfg_.params.max_block_size, kBlockOverhead);

  // Coinbase: subsidy + all fees to this miner (paper §3 "Mining").
  Amount fees = 0;
  for (const auto& tx : txs) fees += tx->fee;
  auto coinbase = std::make_shared<chain::Transaction>();
  coinbase->coinbase_height = tip_facts.pow_height + 1;
  coinbase->outputs.push_back(
      chain::TxOutput{cfg_.params.block_subsidy + fees, reward_address()});
  txs.insert(txs.begin(), std::move(coinbase));

  chain::BlockHeader header;
  header.type = chain::BlockType::kPow;
  header.prev = tip_facts.block->id();
  header.timestamp = now();
  header.merkle_root = chain::compute_merkle_root(txs);
  header.nonce = rng_.next();  // regtest mode: difficulty check is skipped
  return std::make_shared<chain::Block>(std::move(header), std::move(txs), id_, work);
}

void BitcoinNode::handle_block(const chain::BlockPtr& block, BlockId id, NodeId from) {
  if (tree_.contains_id(id)) return;
  if (auto r = chain::check_pow_block(*block); !r.ok) return;  // invalid: drop
  if (auto r = chain::check_size(*block, cfg_.params); !r.ok) return;
  if (ensure_parent(block, id, from) == kNoBlockId) return;
  accept_block(block, id, from, block->work());
}

}  // namespace bng::bitcoin
