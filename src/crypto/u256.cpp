#include "crypto/u256.hpp"

#include <cassert>
#include <stdexcept>

#include "common/hex.hpp"

namespace bng::crypto {

U256 U256::from_hex(const std::string& hex) {
  std::string padded = hex;
  if (padded.size() > 64) throw std::invalid_argument("U256 hex too long");
  padded.insert(0, 64 - padded.size(), '0');
  auto raw = bng::from_hex(padded);
  return from_bytes_be(raw);
}

U256 U256::from_bytes_be(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 32) throw std::invalid_argument("U256 needs 32 bytes");
  U256 v;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t limb = 0;
    for (int j = 0; j < 8; ++j) limb = limb << 8 | bytes[8 * (3 - i) + j];
    v.limb[i] = limb;
  }
  return v;
}

std::array<std::uint8_t, 32> U256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      out[8 * (3 - i) + j] = static_cast<std::uint8_t>(limb[i] >> (56 - 8 * j));
  return out;
}

std::string U256::to_hex() const {
  auto b = to_bytes_be();
  return bng::to_hex(b);
}

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i)
    if (limb[i] != 0) return 64 * i + 64 - __builtin_clzll(limb[i]);
  return 0;
}

U256 U256::add(const U256& a, const U256& b, bool& carry) {
  U256 r;
  unsigned __int128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += a.limb[i];
    acc += b.limb[i];
    r.limb[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  carry = acc != 0;
  return r;
}

U256 U256::sub(const U256& a, const U256& b, bool& borrow) {
  U256 r;
  unsigned __int128 br = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 lhs = a.limb[i];
    unsigned __int128 rhs = static_cast<unsigned __int128>(b.limb[i]) + br;
    if (lhs >= rhs) {
      r.limb[i] = static_cast<std::uint64_t>(lhs - rhs);
      br = 0;
    } else {
      r.limb[i] = static_cast<std::uint64_t>((static_cast<unsigned __int128>(1) << 64) + lhs - rhs);
      br = 1;
    }
  }
  borrow = br != 0;
  return r;
}

U256 U256::shl(unsigned n) const {
  assert(n < 256);
  U256 r;
  unsigned limb_shift = n / 64, bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limb[src] << bit_shift;
      if (bit_shift > 0 && src - 1 >= 0) v |= limb[src - 1] >> (64 - bit_shift);
    }
    r.limb[i] = v;
  }
  return r;
}

U256 U256::shr(unsigned n) const {
  assert(n < 256);
  U256 r;
  unsigned limb_shift = n / 64, bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    unsigned src = i + limb_shift;
    if (src < 4) {
      v = limb[src] >> bit_shift;
      if (bit_shift > 0 && src + 1 < 4) v |= limb[src + 1] << (64 - bit_shift);
    }
    r.limb[i] = v;
  }
  return r;
}

int U512::bit_length() const {
  for (int i = 7; i >= 0; --i)
    if (limb[i] != 0) return 64 * i + 64 - __builtin_clzll(limb[i]);
  return 0;
}

U256 U512::mod(const U256& m) const {
  assert(!m.is_zero());
  // Binary long division: scan bits from MSB, maintaining remainder < m.
  U256 rem;
  for (int i = bit_length() - 1; i >= 0; --i) {
    // rem = rem * 2 + bit(i); rem < m <= 2^256-1 so the shift cannot overflow
    // past 257 bits... it can overflow U256 if m is close to 2^256. Handle by
    // checking the dropped bit explicitly.
    bool top = rem.bit(255);
    rem = rem.shl(1);
    if (bit(i)) rem.limb[0] |= 1;
    if (top || rem >= m) {
      bool borrow;
      rem = U256::sub(rem, m, borrow);
      // When `top` was set the true value is rem + 2^256; subtracting m once
      // is guaranteed to bring it below 2^256 because m > 2^255 whenever top
      // can be set (rem < m before the shift).
    }
  }
  return rem;
}

}  // namespace bng::crypto
