#include "crypto/ecdsa.hpp"

#include <cassert>
#include <cstring>

#include "crypto/sha256.hpp"

namespace bng::crypto {

namespace {

/// Message hash -> scalar (mod n), per ECDSA (take leftmost 256 bits, reduce).
U256 hash_to_scalar(const Hash256& h) { return sc_reduce(U256::from_hash(h)); }

/// Deterministic nonce: k_i = SHA256(secret || msg || i), first i giving a
/// valid k in [1, n-1]. Simplified from RFC 6979's HMAC-DRBG but serves the
/// same purpose: no RNG dependence at signing time, unique per (key, msg).
U256 derive_nonce(const U256& secret, const Hash256& msg_hash, std::uint32_t counter) {
  Sha256 h;
  auto sk = secret.to_bytes_be();
  h.update(std::span<const std::uint8_t>(sk.data(), sk.size()));
  h.update(std::span<const std::uint8_t>(msg_hash.bytes.data(), msg_hash.bytes.size()));
  std::uint8_t ctr[4] = {static_cast<std::uint8_t>(counter >> 24),
                         static_cast<std::uint8_t>(counter >> 16),
                         static_cast<std::uint8_t>(counter >> 8),
                         static_cast<std::uint8_t>(counter)};
  h.update(std::span<const std::uint8_t>(ctr, 4));
  return sc_reduce(U256::from_hash(h.finalize()));
}

}  // namespace

std::array<std::uint8_t, 64> PublicKey::serialize() const {
  std::array<std::uint8_t, 64> out{};
  auto x = point.x.to_bytes_be();
  auto y = point.y.to_bytes_be();
  std::memcpy(out.data(), x.data(), 32);
  std::memcpy(out.data() + 32, y.data(), 32);
  return out;
}

std::optional<PublicKey> PublicKey::deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 64) return std::nullopt;
  PublicKey key;
  key.point.infinity = false;
  key.point.x = U256::from_bytes_be(bytes.subspan(0, 32));
  key.point.y = U256::from_bytes_be(bytes.subspan(32, 32));
  if (!key.point.valid()) return std::nullopt;
  return key;
}

std::array<std::uint8_t, 33> PublicKey::serialize_compressed() const {
  std::array<std::uint8_t, 33> out{};
  out[0] = point.y.is_odd() ? 0x03 : 0x02;
  auto x = point.x.to_bytes_be();
  std::memcpy(out.data() + 1, x.data(), 32);
  return out;
}

std::optional<PublicKey> PublicKey::deserialize_compressed(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 33) return std::nullopt;
  if (bytes[0] != 0x02 && bytes[0] != 0x03) return std::nullopt;
  U256 x = U256::from_bytes_be(bytes.subspan(1, 32));
  auto point = lift_x(x, bytes[0] == 0x03);
  if (!point) return std::nullopt;
  return PublicKey{*point};
}

PrivateKey PrivateKey::generate(Rng& rng) {
  for (;;) {
    U256 candidate(rng.next(), rng.next(), rng.next(), rng.next());
    U256 reduced = sc_reduce(candidate);
    if (!reduced.is_zero()) return PrivateKey{reduced};
  }
}

PrivateKey PrivateKey::from_seed(std::uint64_t seed) {
  Rng rng(seed ^ 0xb10c5eedull);
  return generate(rng);
}

PublicKey PrivateKey::public_key() const {
  return PublicKey{base_mul(secret).to_affine()};
}

std::array<std::uint8_t, 64> Signature::serialize() const {
  std::array<std::uint8_t, 64> out{};
  auto rb = r.to_bytes_be();
  auto sb = s.to_bytes_be();
  std::memcpy(out.data(), rb.data(), 32);
  std::memcpy(out.data() + 32, sb.data(), 32);
  return out;
}

Signature Signature::deserialize(std::span<const std::uint8_t> bytes) {
  assert(bytes.size() == 64);
  Signature sig;
  sig.r = U256::from_bytes_be(bytes.subspan(0, 32));
  sig.s = U256::from_bytes_be(bytes.subspan(32, 32));
  return sig;
}

Signature sign(const PrivateKey& key, const Hash256& msg_hash) {
  const U256 z = hash_to_scalar(msg_hash);
  for (std::uint32_t counter = 0;; ++counter) {
    U256 k = derive_nonce(key.secret, msg_hash, counter);
    if (k.is_zero()) continue;
    AffinePoint R = base_mul(k).to_affine();
    if (R.infinity) continue;
    U256 r = sc_reduce(R.x);
    if (r.is_zero()) continue;
    U256 s = sc_mul(sc_inv(k), sc_add(z, sc_mul(r, key.secret)));
    if (s.is_zero()) continue;
    // Canonicalize to low-s (BIP 62).
    bool borrow;
    U256 half = U256::sub(order_n(), U256(1), borrow).shr(1);
    if (s > half) s = sc_neg(s);
    return Signature{r, s};
  }
}

bool verify(const PublicKey& key, const Hash256& msg_hash, const Signature& sig) {
  if (!key.valid()) return false;
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (sig.r >= order_n() || sig.s >= order_n()) return false;
  const U256 z = hash_to_scalar(msg_hash);
  U256 w = sc_inv(sig.s);
  U256 u1 = sc_mul(z, w);
  U256 u2 = sc_mul(sig.r, w);
  JacobianPoint R = double_scalar_mul(u1, u2, key.point);
  if (R.is_infinity()) return false;
  AffinePoint Ra = R.to_affine();
  return sc_reduce(Ra.x) == sig.r;
}

}  // namespace bng::crypto
