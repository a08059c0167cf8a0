#include "chain/transaction.hpp"

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bng::chain {
namespace {

Outpoint op(std::uint8_t tag, std::uint32_t vout = 0) {
  Outpoint o;
  o.txid.bytes[0] = tag;
  o.vout = vout;
  return o;
}

TEST(Transaction, TransferFactoryFields) {
  auto tx = make_transfer(op(1), 900, address_from_tag(2), 100);
  EXPECT_EQ(tx->inputs.size(), 1u);
  EXPECT_EQ(tx->outputs.size(), 1u);
  EXPECT_EQ(tx->outputs[0].value, 900);
  EXPECT_EQ(tx->fee, 100);
  EXPECT_FALSE(tx->is_coinbase());
  EXPECT_FALSE(tx->is_poison());
}

TEST(Transaction, IdIsStable) {
  auto tx = make_transfer(op(1), 900, address_from_tag(2), 100);
  EXPECT_EQ(tx->id(), tx->id());
}

TEST(Transaction, IdDependsOnContent) {
  auto a = make_transfer(op(1), 900, address_from_tag(2), 100);
  auto b = make_transfer(op(1), 901, address_from_tag(2), 100);
  auto c = make_transfer(op(2), 900, address_from_tag(2), 100);
  auto d = make_transfer(op(1), 900, address_from_tag(3), 100);
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(a->id(), c->id());
  EXPECT_NE(a->id(), d->id());
}

TEST(Transaction, PaddingChangesSizeNotStructure) {
  auto small = make_transfer(op(1), 900, address_from_tag(2), 100, 0);
  auto padded = make_transfer(op(1), 900, address_from_tag(2), 100, 150);
  EXPECT_EQ(padded->wire_size(), small->wire_size() + 150);
  // Padding length participates in the id (it is serialized as a count).
  EXPECT_NE(small->id(), padded->id());
}

TEST(Transaction, IdenticalSizeAcrossSyntheticPopulation) {
  // The paper's workload needs identically sized transactions (§7).
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    auto tx = make_transfer(op(static_cast<std::uint8_t>(i)), 900,
                            address_from_tag(i), 100, 200);
    if (expected == 0) expected = tx->wire_size();
    EXPECT_EQ(tx->wire_size(), expected);
  }
}

TEST(Transaction, CoinbaseHasHeightAndNoInputs) {
  Transaction tx;
  tx.coinbase_height = 42;
  tx.outputs.push_back(TxOutput{50 * kCoin, address_from_tag(1)});
  EXPECT_TRUE(tx.is_coinbase());
  EXPECT_TRUE(tx.inputs.empty());
}

TEST(Transaction, CoinbaseIdsUniquePerHeight) {
  Transaction a, b;
  a.coinbase_height = 1;
  b.coinbase_height = 2;
  a.outputs.push_back(TxOutput{50, address_from_tag(1)});
  b.outputs.push_back(TxOutput{50, address_from_tag(1)});
  EXPECT_NE(a.id(), b.id());
}

TEST(Transaction, PoisonPayloadSerialized) {
  Transaction tx;
  PoisonPayload p;
  p.accused_key_block.bytes[0] = 0xaa;
  p.pruned_header = {1, 2, 3, 4};
  p.pruned_header_id.bytes[0] = 0xbb;
  tx.poison = p;
  tx.outputs.push_back(TxOutput{5, address_from_tag(9)});
  EXPECT_TRUE(tx.is_poison());

  Transaction tx2 = tx;
  tx2.poison->pruned_header = {1, 2, 3, 5};
  EXPECT_NE(tx.id(), tx2.id());
}

TEST(Transaction, IdAndWireSizeMatchAFreshSerializationInEitherOrder) {
  // One serialization fills both caches, whichever accessor runs first.
  using Factory = TxPtr (*)();
  const Factory factories[] = {
      []() -> TxPtr { return make_transfer(op(1), 900, address_from_tag(2), 100, 57); },
      []() -> TxPtr {
        auto tx = std::make_shared<Transaction>();
        tx->coinbase_height = 300;
        tx->outputs.push_back(TxOutput{50, address_from_tag(3)});
        return tx;
      },
      []() -> TxPtr {
        auto tx = std::make_shared<Transaction>();
        PoisonPayload p;
        p.accused_key_block.bytes[0] = 0xaa;
        p.pruned_header.assign(300, 0x42);  // a multi-byte CompactSize length
        p.pruned_header_id.bytes[0] = 0xbb;
        tx->poison = p;
        tx->inputs.push_back(TxInput{op(4, 2)});
        return tx;
      },
  };
  for (const Factory make : factories) {
    for (const bool id_first : {true, false}) {
      const TxPtr tx = make();
      Hash256 id;
      std::size_t size = 0;
      if (id_first) {
        id = tx->id();
        size = tx->wire_size();
      } else {
        size = tx->wire_size();
        id = tx->id();
      }
      ByteWriter fresh;
      tx->serialize(fresh);
      EXPECT_EQ(id, crypto::sha256d(fresh.data())) << "id_first " << id_first;
      EXPECT_EQ(size, fresh.size() + tx->padding_bytes) << "id_first " << id_first;
      EXPECT_EQ(tx->id(), id);
      EXPECT_EQ(tx->wire_size(), size);
    }
  }
}

TEST(Addresses, TagAddressIsTheHashOfItsLittleEndianPreimage) {
  for (const std::uint64_t tag : {0ull, 1ull, 1'000'000ull, 0xfedcba9876543210ull}) {
    ByteWriter w;
    w.u64(0x61646472u);  // "addr"
    w.u64(tag);
    EXPECT_EQ(address_from_tag(tag), crypto::sha256(w.data())) << "tag " << tag;
  }
}

TEST(Addresses, DerivedFromKeyAndTagAreStable) {
  auto key = crypto::PrivateKey::from_seed(7).public_key();
  EXPECT_EQ(address_of(key), address_of(key));
  EXPECT_EQ(address_from_tag(5), address_from_tag(5));
  EXPECT_NE(address_from_tag(5), address_from_tag(6));
  EXPECT_NE(address_of(key), address_from_tag(5));
}

TEST(Outpoint, OrderingAndHashing) {
  Outpoint a = op(1, 0), b = op(1, 1), c = op(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  OutpointHasher h;
  EXPECT_NE(h(a), h(b));
}

}  // namespace
}  // namespace bng::chain
