#include "crypto/ecdsa.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"

namespace bng::crypto {
namespace {

// Known answers. Every other ECDSA test is a sign -> verify round trip
// through the same scalar code, which a consistent arithmetic error passes.
// These pin exact bytes and, unlike the golden digests, no environment
// variable skips them.

void expect_point(const PublicKey& key, const char* x, const char* y) {
  EXPECT_FALSE(key.point.infinity);
  EXPECT_EQ(key.point.x.to_hex(), x);
  EXPECT_EQ(key.point.y.to_hex(), y);
}

TEST(EcdsaKnownAnswer, PublicKeysOfSmallSecretsArePublishedMultiplesOfG) {
  // G is the SEC 2 generator; 2G and 3G are its widely published multiples;
  // (n-1)G = -G.
  const char* gx = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
  expect_point(PrivateKey{U256(1)}.public_key(), gx,
               "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
  expect_point(PrivateKey{U256(2)}.public_key(),
               "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
               "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
  expect_point(PrivateKey{U256(3)}.public_key(),
               "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
               "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672");
  bool borrow;
  expect_point(PrivateKey{U256::sub(order_n(), U256(1), borrow)}.public_key(), gx,
               "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777");
}

TEST(EcdsaKnownAnswer, NgLeaderKeys) {
  // NgNode derives its leader key as from_seed(0x6e670000 + node id).
  expect_point(PrivateKey::from_seed(0x6e670000ull).public_key(),
               "53d4da65836cd4816efae1f27261ac2df8c4d6cd296c47c8a92217f03beeb596",
               "1660afe449304b07c9a2f47e4af96c9c43bc43fa3203a8564843da0d93be3d16");
  expect_point(PrivateKey::from_seed(0x6e670001ull).public_key(),
               "6b91dde2e1c7324521dc86075b0e21a7331946108d30bb66dba543861e7f8a35",
               "10d3153cf323c9cecda69b7c9ff9a72e8a5177f9ee9e6ed136cbcf608873eb14");
  expect_point(PrivateKey::from_seed(0x6e670000ull + 199).public_key(),
               "2dd69c0db855aaeae006e0bfdf6c3af6bfa2c334ea0e136d8d9e3cf33a267b08",
               "4b4458d6ae1ceffc1ec63e618c44cc6d07e8cc3b47cb845be0784ee9447cf49f");
}

TEST(EcdsaKnownAnswer, MicroblockSignature) {
  const auto sk = PrivateKey::from_seed(0x6e670001ull);
  const auto msg = sha256("microblock header");
  const Signature sig = sign(sk, msg);
  EXPECT_EQ(sig.r.to_hex(), "ee485b9b05714846d8208901316058ad0c9aa5b36fde41f1063c4213b17cd82c");
  EXPECT_EQ(sig.s.to_hex(), "05c2650764c4d8e81971f3106c76118ff6487983c054babcee6bbb0c4b12425d");
  EXPECT_TRUE(verify(sk.public_key(), msg, sig));
}

TEST(KeyDerivation, ConcurrentFirstUseMatchesSerial) {
  // The first crypto call of this test (ctest runs each test in its own
  // process): 8 threads derive keys at once, so they race to build the
  // fixed-base table. `--jobs` workers do the same at the start of a sweep.
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 8;
  const auto leader_key = [](int node) { return PrivateKey::from_seed(0x6e670000ull + node); };
  std::vector<std::vector<PublicKey>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kKeysPerThread; ++i)
        got[t].push_back(leader_key(t * kKeysPerThread + i).public_key());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const auto sk = leader_key(t * kKeysPerThread + i);
      EXPECT_EQ(got[t][i], sk.public_key());
      EXPECT_EQ(got[t][i].point, scalar_mul(sk.secret, generator()).to_affine());
    }
  }
}

class EcdsaTest : public ::testing::Test {
 protected:
  bng::Rng rng_{424242};
};

TEST_F(EcdsaTest, SignVerifyRoundTrip) {
  auto sk = PrivateKey::generate(rng_);
  auto pk = sk.public_key();
  auto msg = sha256("pay alice 5 coins");
  auto sig = sign(sk, msg);
  EXPECT_TRUE(verify(pk, msg, sig));
}

TEST_F(EcdsaTest, TamperedMessageRejected) {
  auto sk = PrivateKey::generate(rng_);
  auto sig = sign(sk, sha256("original"));
  EXPECT_FALSE(verify(sk.public_key(), sha256("tampered"), sig));
}

TEST_F(EcdsaTest, WrongKeyRejected) {
  auto sk1 = PrivateKey::generate(rng_);
  auto sk2 = PrivateKey::generate(rng_);
  auto msg = sha256("message");
  EXPECT_FALSE(verify(sk2.public_key(), msg, sign(sk1, msg)));
}

TEST_F(EcdsaTest, TamperedSignatureRejected) {
  auto sk = PrivateKey::generate(rng_);
  auto msg = sha256("message");
  auto sig = sign(sk, msg);
  Signature bad = sig;
  bad.r = sc_add(bad.r, U256(1));
  EXPECT_FALSE(verify(sk.public_key(), msg, bad));
  bad = sig;
  bad.s = sc_add(bad.s, U256(1));
  EXPECT_FALSE(verify(sk.public_key(), msg, bad));
}

TEST_F(EcdsaTest, DeterministicNonceGivesStableSignature) {
  auto sk = PrivateKey::generate(rng_);
  auto msg = sha256("stable");
  EXPECT_EQ(sign(sk, msg), sign(sk, msg));
}

TEST_F(EcdsaTest, DifferentMessagesGiveDifferentNonces) {
  // Identical r across two messages would leak the private key.
  auto sk = PrivateKey::generate(rng_);
  auto s1 = sign(sk, sha256("one"));
  auto s2 = sign(sk, sha256("two"));
  EXPECT_NE(s1.r, s2.r);
}

TEST_F(EcdsaTest, LowSNormalization) {
  bool borrow;
  U256 half = U256::sub(order_n(), U256(1), borrow).shr(1);
  for (int i = 0; i < 8; ++i) {
    auto sk = PrivateKey::generate(rng_);
    auto sig = sign(sk, sha256(std::string("msg") + std::to_string(i)));
    EXPECT_LE(sig.s, half);
  }
}

TEST_F(EcdsaTest, ZeroSignatureComponentsRejected) {
  auto sk = PrivateKey::generate(rng_);
  auto msg = sha256("x");
  EXPECT_FALSE(verify(sk.public_key(), msg, Signature{U256(0), U256(1)}));
  EXPECT_FALSE(verify(sk.public_key(), msg, Signature{U256(1), U256(0)}));
}

TEST_F(EcdsaTest, OutOfRangeComponentsRejected) {
  auto sk = PrivateKey::generate(rng_);
  auto msg = sha256("x");
  EXPECT_FALSE(verify(sk.public_key(), msg, Signature{order_n(), U256(1)}));
}

TEST_F(EcdsaTest, PublicKeySerializationRoundTrip) {
  auto sk = PrivateKey::generate(rng_);
  auto pk = sk.public_key();
  auto ser = pk.serialize();
  auto back = PublicKey::deserialize(ser);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pk);
}

TEST_F(EcdsaTest, CorruptPublicKeyRejected) {
  auto sk = PrivateKey::generate(rng_);
  auto ser = sk.public_key().serialize();
  ser[10] ^= 0xff;  // point no longer on curve (overwhelmingly likely)
  EXPECT_FALSE(PublicKey::deserialize(ser).has_value());
}

TEST_F(EcdsaTest, WrongLengthPublicKeyRejected) {
  std::vector<std::uint8_t> short_key(63, 0);
  EXPECT_FALSE(PublicKey::deserialize(short_key).has_value());
}

TEST_F(EcdsaTest, SignatureSerializationRoundTrip) {
  auto sk = PrivateKey::generate(rng_);
  auto sig = sign(sk, sha256("serialize me"));
  auto back = Signature::deserialize(sig.serialize());
  EXPECT_EQ(back, sig);
}

TEST_F(EcdsaTest, FromSeedIsDeterministic) {
  auto a = PrivateKey::from_seed(1234);
  auto b = PrivateKey::from_seed(1234);
  auto c = PrivateKey::from_seed(1235);
  EXPECT_EQ(a.secret, b.secret);
  EXPECT_NE(a.secret, c.secret);
}

TEST_F(EcdsaTest, GeneratedKeyInRange) {
  for (int i = 0; i < 10; ++i) {
    auto sk = PrivateKey::generate(rng_);
    EXPECT_FALSE(sk.secret.is_zero());
    EXPECT_LT(sk.secret, order_n());
    EXPECT_TRUE(sk.public_key().valid());
  }
}

// Property sweep: roundtrip across many keys and messages.
class EcdsaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EcdsaPropertyTest, SignVerifyAcrossKeys) {
  bng::Rng rng(1000 + GetParam());
  auto sk = PrivateKey::generate(rng);
  auto pk = sk.public_key();
  auto msg = sha256(std::string("message-") + std::to_string(GetParam()));
  auto sig = sign(sk, msg);
  EXPECT_TRUE(verify(pk, msg, sig));
  // Cross-verify must fail against a different message.
  auto other = sha256(std::string("other-") + std::to_string(GetParam()));
  EXPECT_FALSE(verify(pk, other, sig));
}

INSTANTIATE_TEST_SUITE_P(ManyKeys, EcdsaPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace bng::crypto
