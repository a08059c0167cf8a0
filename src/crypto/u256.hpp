// 256-bit unsigned integer arithmetic (little-endian 64-bit limbs).
//
// Backs the secp256k1 field/scalar implementation and proof-of-work target
// comparisons. Not constant-time: this library is a protocol simulator, not
// a wallet.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>

#include "common/types.hpp"

namespace bng::crypto {

struct U512;

struct U256 {
  // limb[0] is least significant.
  std::array<std::uint64_t, 4> limb{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2, std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  static U256 from_hex(const std::string& hex);
  static U256 from_bytes_be(std::span<const std::uint8_t> bytes);  // exactly 32 bytes
  static U256 from_hash(const Hash256& h) {
    return from_bytes_be(std::span(h.bytes.data(), h.bytes.size()));
  }

  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes_be() const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  [[nodiscard]] bool is_odd() const { return limb[0] & 1; }
  [[nodiscard]] bool bit(int i) const { return (limb[i >> 6] >> (i & 63)) & 1; }
  [[nodiscard]] int bit_length() const;

  friend bool operator==(const U256&, const U256&) = default;
  friend std::strong_ordering operator<=>(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i)
      if (a.limb[i] != b.limb[i]) return a.limb[i] <=> b.limb[i];
    return std::strong_ordering::equal;
  }

  /// a + b; carry-out returned via `carry`.
  static U256 add(const U256& a, const U256& b, bool& carry);
  /// a - b; borrow-out returned via `borrow`.
  static U256 sub(const U256& a, const U256& b, bool& borrow);
  /// Full 256x256 -> 512-bit product.
  static U512 mul_wide(const U256& a, const U256& b);

  [[nodiscard]] U256 shl(unsigned n) const;  // n in [0, 255]
  [[nodiscard]] U256 shr(unsigned n) const;
};

struct U512 {
  std::array<std::uint64_t, 8> limb{};

  [[nodiscard]] bool bit(int i) const { return (limb[i >> 6] >> (i & 63)) & 1; }
  [[nodiscard]] int bit_length() const;

  /// Remainder of this mod m (binary long division). m must be non-zero.
  /// One shift-and-subtract step per bit, so slow; no production path calls
  /// it. Tests keep it as the oracle for the special-form reductions mod p
  /// and n in secp256k1.cpp.
  [[nodiscard]] U256 mod(const U256& m) const;

  static U512 from_u256(const U256& v) {
    U512 w;
    for (int i = 0; i < 4; ++i) w.limb[i] = v.limb[i];
    return w;
  }
};

}  // namespace bng::crypto
