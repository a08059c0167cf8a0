#include "chain/transaction.hpp"

#include "crypto/sha256.hpp"

namespace bng::chain {

void Transaction::serialize(ByteWriter& w) const {
  w.u8(is_coinbase() ? 1 : 0);
  if (is_coinbase()) w.u32(*coinbase_height);
  w.varint(inputs.size());
  for (const auto& in : inputs) {
    w.bytes(in.prevout.txid.bytes);
    w.u32(in.prevout.vout);
  }
  w.varint(outputs.size());
  for (const auto& out : outputs) {
    w.u64(static_cast<std::uint64_t>(out.value));
    w.bytes(out.owner.bytes);
  }
  w.u64(static_cast<std::uint64_t>(fee));
  w.u8(is_poison() ? 1 : 0);
  if (is_poison()) {
    w.bytes(poison->accused_key_block.bytes);
    w.varint(poison->pruned_header.size());
    w.bytes(poison->pruned_header);
    w.bytes(poison->pruned_header_id.bytes);
  }
  w.u32(padding_bytes);
}

std::size_t Transaction::wire_size() const {
  if (!cached_id_) (void)id();
  return cached_size_;
}

Hash256 Transaction::id() const {
  if (!cached_id_) {
    // One serialization fills both caches.
    ByteWriter w;
    serialize(w);
    cached_size_ = w.size() + padding_bytes;
    cached_id_ = crypto::sha256d(w.data());
  }
  return *cached_id_;
}

TxPtr make_transfer(const Outpoint& from, Amount value, const Hash256& to, Amount fee,
                    std::uint32_t padding_bytes) {
  auto tx = std::make_shared<Transaction>();
  tx->inputs.push_back(TxInput{from});
  tx->outputs.push_back(TxOutput{value, to});
  tx->fee = fee;
  tx->padding_bytes = padding_bytes;
  return tx;
}

Hash256 address_of(const crypto::PublicKey& key) {
  auto ser = key.serialize();
  return crypto::sha256(std::span<const std::uint8_t>(ser.data(), ser.size()));
}

Hash256 address_from_tag(std::uint64_t tag) {
  // What ByteWriter's u64(0x61646472) ("addr") then u64(tag) would hold.
  std::uint8_t preimage[16];
  for (int i = 0; i < 8; ++i) {
    preimage[i] = static_cast<std::uint8_t>(std::uint64_t{0x61646472} >> (8 * i));
    preimage[8 + i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
  return crypto::sha256(preimage);
}

}  // namespace bng::chain
