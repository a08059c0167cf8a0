// ECDSA over secp256k1 with deterministic (RFC 6979-inspired) nonces.
//
// Bitcoin-NG microblock headers are signed with the private key matching the
// public key published in the leader's key block (paper §4.2). This module
// provides the key pairs and signatures for that mechanism.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/secp256k1.hpp"

namespace bng::crypto {

struct PublicKey {
  AffinePoint point;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

  /// 64-byte uncompressed (x || y) encoding.
  [[nodiscard]] std::array<std::uint8_t, 64> serialize() const;
  static std::optional<PublicKey> deserialize(std::span<const std::uint8_t> bytes);

  /// 33-byte compressed encoding (0x02/0x03 parity prefix + x), as used on
  /// the Bitcoin wire.
  [[nodiscard]] std::array<std::uint8_t, 33> serialize_compressed() const;
  static std::optional<PublicKey> deserialize_compressed(
      std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool valid() const { return !point.infinity && point.valid(); }
};

struct PrivateKey {
  U256 secret;  // in [1, n-1]

  /// Generate a uniformly random key.
  static PrivateKey generate(Rng& rng);

  /// Derive deterministically from a seed (for reproducible simulations).
  static PrivateKey from_seed(std::uint64_t seed);

  [[nodiscard]] PublicKey public_key() const;
};

struct Signature {
  U256 r;
  U256 s;

  friend bool operator==(const Signature&, const Signature&) = default;

  [[nodiscard]] std::array<std::uint8_t, 64> serialize() const;
  static Signature deserialize(std::span<const std::uint8_t> bytes);
};

/// Sign a 32-byte message hash. Always produces low-s signatures.
Signature sign(const PrivateKey& key, const Hash256& msg_hash);

/// Verify a signature on a 32-byte message hash.
bool verify(const PublicKey& key, const Hash256& msg_hash, const Signature& sig);

/// sign() and verify() calls made on the calling thread since it started.
/// A job runs on one thread, so the difference across the job is its count
/// (ngsim's `--stats-json` "signatures"). Nothing in a simulation reads it.
struct SignatureCounts {
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
};
SignatureCounts thread_signature_counts();

}  // namespace bng::crypto
