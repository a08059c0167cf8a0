#include "chain/block.hpp"

#include <stdexcept>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace bng::chain {

namespace {
/// The longest header serialize() writes (one with both a leader key and a
/// signature), so a writer pre-sized to it never grows.
constexpr std::size_t kMaxHeaderBytes = 1 + 32 + 8 + 32 + 32 + 8 + (1 + 64) + (1 + 64);
}  // namespace

void BlockHeader::serialize_unsigned(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(prev.bytes);
  w.f64(timestamp);
  w.bytes(merkle_root.bytes);
  auto target_be = target.to_bytes_be();
  w.bytes(target_be);
  w.u64(nonce);
  w.u8(leader_key.has_value() ? 1 : 0);
  if (leader_key) {
    auto pk = leader_key->serialize();
    w.bytes(pk);
  }
}

void BlockHeader::serialize(ByteWriter& w) const {
  serialize_unsigned(w);
  w.u8(signature.has_value() ? 1 : 0);
  if (signature) {
    auto sig = signature->serialize();
    w.bytes(sig);
  }
}

BlockHeader BlockHeader::deserialize(ByteReader& r) {
  BlockHeader h;
  h.type = static_cast<BlockType>(r.u8());
  auto prev = r.take(32);
  std::copy(prev.begin(), prev.end(), h.prev.bytes.begin());
  h.timestamp = r.f64();
  auto root = r.take(32);
  std::copy(root.begin(), root.end(), h.merkle_root.bytes.begin());
  h.target = crypto::U256::from_bytes_be(r.take(32));
  h.nonce = r.u64();
  if (r.u8() != 0) {
    auto key = crypto::PublicKey::deserialize(r.take(64));
    if (!key) throw std::invalid_argument("BlockHeader: bad leader key");
    h.leader_key = *key;
  }
  if (r.u8() != 0) h.signature = crypto::Signature::deserialize(r.take(64));
  return h;
}

Hash256 BlockHeader::id() const {
  ByteWriter w;
  w.reserve(kMaxHeaderBytes);
  serialize(w);
  return crypto::sha256d(w.data());
}

Hash256 BlockHeader::signing_hash() const {
  ByteWriter w;
  w.reserve(kMaxHeaderBytes);
  serialize_unsigned(w);
  return crypto::sha256d(w.data());
}

Block::Block(BlockHeader header, std::vector<TxPtr> txs, std::uint32_t miner, double work)
    : header_(std::move(header)), txs_(std::move(txs)), miner_(miner) {
  work_ = header_.type == BlockType::kMicro ? 0.0 : work;
  // One header serialization gives both the id and the header's size.
  ByteWriter w;
  w.reserve(kMaxHeaderBytes);
  header_.serialize(w);
  id_ = crypto::sha256d(w.data());
  wire_size_ = w.size();
  for (const auto& tx : txs_) wire_size_ += tx->wire_size();
}

void Block::serialize(ByteWriter& w) const {
  header_.serialize(w);
  w.u32(miner_);
  w.f64(work_);
  w.varint(txs_.size());
  for (const auto& tx : txs_) {
    ByteWriter tw;
    tx->serialize(tw);
    w.varint(tw.size());
    w.bytes(tw.data());
    // Padding bytes are length-only; re-emit zeros to keep sizes faithful.
    w.varint(tx->padding_bytes);
    for (std::uint32_t i = 0; i < tx->padding_bytes; ++i) w.u8(0);
  }
}

namespace {
Transaction deserialize_tx(ByteReader& r) {
  Transaction tx;
  const bool coinbase = r.u8() != 0;
  if (coinbase) tx.coinbase_height = r.u32();
  const auto n_in = r.varint();
  for (std::uint64_t i = 0; i < n_in; ++i) {
    TxInput in;
    auto txid = r.take(32);
    std::copy(txid.begin(), txid.end(), in.prevout.txid.bytes.begin());
    in.prevout.vout = r.u32();
    tx.inputs.push_back(in);
  }
  const auto n_out = r.varint();
  for (std::uint64_t i = 0; i < n_out; ++i) {
    TxOutput out;
    out.value = static_cast<Amount>(r.u64());
    auto owner = r.take(32);
    std::copy(owner.begin(), owner.end(), out.owner.bytes.begin());
    tx.outputs.push_back(out);
  }
  tx.fee = static_cast<Amount>(r.u64());
  if (r.u8() != 0) {
    PoisonPayload p;
    auto accused = r.take(32);
    std::copy(accused.begin(), accused.end(), p.accused_key_block.bytes.begin());
    auto len = r.varint();
    auto header = r.take(len);
    p.pruned_header.assign(header.begin(), header.end());
    auto id = r.take(32);
    std::copy(id.begin(), id.end(), p.pruned_header_id.bytes.begin());
    tx.poison = std::move(p);
  }
  tx.padding_bytes = r.u32();
  return tx;
}
}  // namespace

BlockPtr Block::deserialize(ByteReader& r) {
  BlockHeader header = BlockHeader::deserialize(r);
  const std::uint32_t miner = r.u32();
  const double work = r.f64();
  const auto n_txs = r.varint();
  std::vector<TxPtr> txs;
  txs.reserve(n_txs);
  for (std::uint64_t i = 0; i < n_txs; ++i) {
    const auto tx_len = r.varint();
    ByteReader tr(r.take(tx_len));
    Transaction tx = deserialize_tx(tr);
    const auto padding = r.varint();
    r.take(padding);  // discard padding zeros
    if (tx.padding_bytes != padding)
      throw std::invalid_argument("Block::deserialize: padding mismatch");
    txs.push_back(std::make_shared<Transaction>(std::move(tx)));
  }
  return std::make_shared<Block>(std::move(header), std::move(txs), miner, work);
}

Amount Block::total_fees() const {
  Amount total = 0;
  for (const auto& tx : txs_)
    if (!tx->is_coinbase()) total += tx->fee;
  return total;
}

bool Block::merkle_ok() const { return compute_merkle_root(txs_) == header_.merkle_root; }

Hash256 compute_merkle_root(const std::vector<TxPtr>& txs) {
  std::vector<Hash256> ids;
  ids.reserve(txs.size());
  for (const auto& tx : txs) ids.push_back(tx->id());
  return crypto::merkle_root(ids);
}

BlockPtr make_genesis(std::size_t n_outputs, Amount value_each) {
  auto tx = std::make_shared<Transaction>();
  tx->coinbase_height = 0;
  tx->outputs.reserve(n_outputs);
  for (std::size_t i = 0; i < n_outputs; ++i)
    tx->outputs.push_back(TxOutput{value_each, address_from_tag(i)});
  BlockHeader h;
  h.type = BlockType::kPow;
  h.prev = Hash256{};  // no predecessor
  h.timestamp = 0;
  std::vector<TxPtr> txs{std::move(tx)};
  h.merkle_root = compute_merkle_root(txs);
  return std::make_shared<Block>(std::move(h), std::move(txs), UINT32_MAX);
}

}  // namespace bng::chain
