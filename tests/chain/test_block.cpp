#include "chain/block.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bng::chain {
namespace {

std::vector<TxPtr> sample_txs(int n) {
  std::vector<TxPtr> txs;
  for (int i = 0; i < n; ++i) {
    Outpoint op;
    op.txid.bytes[0] = static_cast<std::uint8_t>(i + 1);
    txs.push_back(make_transfer(op, 1000, address_from_tag(i), 10));
  }
  return txs;
}

BlockHeader header_with(BlockType type, const Hash256& prev, Seconds ts,
                        const std::vector<TxPtr>& txs) {
  BlockHeader h;
  h.type = type;
  h.prev = prev;
  h.timestamp = ts;
  h.merkle_root = compute_merkle_root(txs);
  return h;
}

TEST(BlockHeader, IdCoversAllFields) {
  auto txs = sample_txs(2);
  auto base = header_with(BlockType::kPow, Hash256{}, 5.0, txs);
  auto id0 = base.id();

  auto h = base;
  h.timestamp = 6.0;
  EXPECT_NE(h.id(), id0);

  h = base;
  h.nonce = 1;
  EXPECT_NE(h.id(), id0);

  h = base;
  h.prev.bytes[0] = 1;
  EXPECT_NE(h.id(), id0);

  h = base;
  h.type = BlockType::kKey;
  EXPECT_NE(h.id(), id0);
}

TEST(BlockHeader, SigningHashExcludesSignature) {
  auto txs = sample_txs(1);
  auto h = header_with(BlockType::kMicro, Hash256{}, 1.0, txs);
  auto pre = h.signing_hash();
  auto sk = crypto::PrivateKey::from_seed(1);
  h.signature = crypto::sign(sk, pre);
  EXPECT_EQ(h.signing_hash(), pre);  // unchanged by attaching the signature
  EXPECT_NE(h.id(), pre);            // but the id covers it
}

TEST(BlockHeader, SerializationRoundTrip) {
  auto txs = sample_txs(1);
  auto h = header_with(BlockType::kKey, Hash256{}, 2.5, txs);
  h.leader_key = crypto::PrivateKey::from_seed(3).public_key();
  h.nonce = 77;
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.data());
  auto back = BlockHeader::deserialize(r);
  EXPECT_EQ(back.id(), h.id());
  EXPECT_EQ(back.type, BlockType::kKey);
  EXPECT_EQ(back.timestamp, 2.5);
  ASSERT_TRUE(back.leader_key.has_value());
  EXPECT_EQ(*back.leader_key, *h.leader_key);
}

TEST(BlockHeader, SignedMicroblockRoundTrip) {
  auto txs = sample_txs(1);
  auto h = header_with(BlockType::kMicro, Hash256{}, 2.5, txs);
  auto sk = crypto::PrivateKey::from_seed(5);
  h.signature = crypto::sign(sk, h.signing_hash());
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.data());
  auto back = BlockHeader::deserialize(r);
  ASSERT_TRUE(back.signature.has_value());
  EXPECT_TRUE(crypto::verify(sk.public_key(), back.signing_hash(), *back.signature));
}

TEST(Block, WireSizeIsHeaderPlusTxs) {
  auto txs = sample_txs(3);
  std::size_t tx_bytes = 0;
  for (const auto& tx : txs) tx_bytes += tx->wire_size();
  auto h = header_with(BlockType::kPow, Hash256{}, 0, txs);
  ByteWriter w;
  h.serialize(w);
  Block block(h, txs, 0);
  EXPECT_EQ(block.wire_size(), w.size() + tx_bytes);
}

TEST(Block, IdAndWireSizeMatchAFreshSerializationForEveryType) {
  // The constructor takes both from one header serialization; either
  // accessor, in either order, must equal what a fresh one gives.
  const auto txs = sample_txs(2);
  auto pow = header_with(BlockType::kPow, Hash256{}, 1.0, txs);
  pow.nonce = 9;
  auto key = header_with(BlockType::kKey, Hash256{}, 2.0, {});
  key.leader_key = crypto::PrivateKey::from_seed(3).public_key();
  auto micro = header_with(BlockType::kMicro, Hash256{}, 3.0, txs);
  micro.signature = crypto::sign(crypto::PrivateKey::from_seed(3), micro.signing_hash());
  for (const BlockHeader& h : {pow, key, micro}) {
    const std::vector<TxPtr> body = h.type == BlockType::kKey ? std::vector<TxPtr>{} : txs;
    ByteWriter fresh;
    h.serialize(fresh);
    std::size_t expected_size = fresh.size();
    for (const auto& tx : body) expected_size += tx->wire_size();

    const Block id_first(h, body, 0);
    const Hash256 id = id_first.id();
    EXPECT_EQ(id, crypto::sha256d(fresh.data()));
    EXPECT_EQ(id, h.id());
    EXPECT_EQ(id_first.wire_size(), expected_size);

    const Block size_first(h, body, 0);
    EXPECT_EQ(size_first.wire_size(), expected_size);
    EXPECT_EQ(size_first.id(), id);
  }
}

TEST(Block, MerkleOkDetectsMismatch) {
  auto txs = sample_txs(3);
  auto h = header_with(BlockType::kPow, Hash256{}, 0, txs);
  EXPECT_TRUE(Block(h, txs, 0).merkle_ok());
  h.merkle_root.bytes[0] ^= 1;
  EXPECT_FALSE(Block(h, txs, 0).merkle_ok());
}

TEST(Block, TotalFeesExcludesCoinbase) {
  auto txs = sample_txs(2);  // 10 each
  auto coinbase = std::make_shared<Transaction>();
  coinbase->coinbase_height = 1;
  coinbase->fee = 999;  // nonsense fee on a coinbase must be ignored
  coinbase->outputs.push_back(TxOutput{50, address_from_tag(0)});
  txs.insert(txs.begin(), coinbase);
  auto h = header_with(BlockType::kPow, Hash256{}, 0, txs);
  EXPECT_EQ(Block(h, txs, 0).total_fees(), 20);
}

TEST(Block, MicroblockWorkForcedToZero) {
  auto txs = sample_txs(1);
  auto h = header_with(BlockType::kMicro, Hash256{}, 0, txs);
  Block micro(h, txs, 0, /*work=*/5.0);
  EXPECT_EQ(micro.work(), 0.0);
  auto h2 = header_with(BlockType::kKey, Hash256{}, 0, txs);
  Block key(h2, txs, 0, 5.0);
  EXPECT_EQ(key.work(), 5.0);
}

TEST(Genesis, HasRequestedOutputs) {
  auto genesis = make_genesis(100, kCoin);
  ASSERT_EQ(genesis->txs().size(), 1u);
  EXPECT_EQ(genesis->txs()[0]->outputs.size(), 100u);
  EXPECT_EQ(genesis->txs()[0]->outputs[7].value, kCoin);
  EXPECT_TRUE(genesis->txs()[0]->is_coinbase());
  EXPECT_TRUE(genesis->header().prev.is_zero());
  EXPECT_TRUE(genesis->merkle_ok());
}

TEST(Genesis, DeterministicId) {
  EXPECT_EQ(make_genesis(10, kCoin)->id(), make_genesis(10, kCoin)->id());
  EXPECT_NE(make_genesis(10, kCoin)->id(), make_genesis(11, kCoin)->id());
}

}  // namespace
}  // namespace bng::chain
