#include "crypto/secp256k1.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace bng::crypto {

namespace {

// p = 2^256 - 2^32 - 977
const U256 kP = U256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
// n = group order
const U256 kN = U256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
// 2^256 mod n = 2^256 - n, a 129-bit value
const U256 kNC = U256::from_hex("14551231950b75fc4402da1732fc9bebf");
// 2^256 mod p = 2^32 + 977
constexpr std::uint64_t kC = 0x1000003d1ull;

const U256 kGx = U256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const U256 kGy = U256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

/// Reduce a 512-bit product modulo p using p's special form:
/// hi*2^256 + lo == hi*(2^32+977) + lo (mod p).
U256 reduce512_mod_p(const U512& t) {
  // First fold: acc (5 limbs) = lo + hi * kC.
  std::uint64_t acc[5] = {};
  {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur = static_cast<unsigned __int128>(t.limb[4 + i]) * kC +
                              t.limb[i] + carry;
      acc[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    acc[4] = static_cast<std::uint64_t>(carry);
  }
  // Second fold: r = acc[0..3] + acc[4] * kC.
  U256 r;
  {
    unsigned __int128 cur = static_cast<unsigned __int128>(acc[4]) * kC + acc[0];
    r.limb[0] = static_cast<std::uint64_t>(cur);
    unsigned __int128 carry = cur >> 64;
    for (int i = 1; i < 4; ++i) {
      cur = static_cast<unsigned __int128>(acc[i]) + carry;
      r.limb[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    // Final possible carry of 1: fold once more (adds kC).
    if (carry) {
      bool c2;
      r = U256::add(r, U256(kC), c2);
      // c2 cannot propagate again: r was < 2^64 in the low limbs after carry.
      assert(!c2);
    }
  }
  while (r >= kP) {
    bool borrow;
    r = U256::sub(r, kP, borrow);
  }
  return r;
}

/// Reduce a 512-bit value modulo n using n's special form:
/// hi*2^256 + lo == hi*c + lo (mod n), c = 2^256 - n < 2^129. The high half
/// is below 2^256, 2^130, 2^4 and 2 before the first to fourth fold, so at
/// most four folds leave a value below 2^256 < 2n, and one conditional
/// subtraction of n finishes.
U256 reduce512_mod_n(U512 t) {
  for (;;) {
    const U256 hi(t.limb[4], t.limb[5], t.limb[6], t.limb[7]);
    U256 lo(t.limb[0], t.limb[1], t.limb[2], t.limb[3]);
    if (hi.is_zero()) {
      if (lo >= kN) {
        bool borrow;
        lo = U256::sub(lo, kN, borrow);
      }
      return lo;
    }
    // hi*c < 2^385, so adding lo cannot carry out of 512 bits.
    t = U256::mul_wide(hi, kNC);
    unsigned __int128 carry = 0;
    for (int i = 0; i < 8; ++i) {
      carry += t.limb[i];
      if (i < 4) carry += lo.limb[i];
      t.limb[i] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }
}

// --- Modular inverse ---------------------------------------------------------
// Inline limb helpers: U256::add/sub/shr are out of line, and the inverse
// loop below runs them a few hundred times per call.

/// a += b; returns the carry out.
inline bool add_in_place(U256& a, const U256& b) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += static_cast<unsigned __int128>(a.limb[i]) + b.limb[i];
    a.limb[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return carry != 0;
}

/// a -= b; returns the borrow out.
inline bool sub_in_place(U256& a, const U256& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    // A negative difference wraps, which sets every bit above bit 63.
    const unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - borrow;
    a.limb[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return borrow != 0;
}

/// x = x / 2 mod m, for odd m and x < m: an odd x gets m added first, and
/// the carry out of that sum becomes the top bit.
inline void halve_mod(U256& x, const U256& m) {
  const std::uint64_t top = x.is_odd() && add_in_place(x, m) ? 1 : 0;
  for (int i = 0; i < 3; ++i) x.limb[i] = x.limb[i] >> 1 | x.limb[i + 1] << 63;
  x.limb[3] = x.limb[3] >> 1 | top << 63;
}

/// Divide u (non-zero) by its largest power-of-two factor 2^k in one shift,
/// and x by 2^k mod m.
inline void remove_twos(U256& u, U256& x, const U256& m) {
  while (u.limb[0] == 0) {  // a whole zero limb: rare
    u = U256(u.limb[1], u.limb[2], u.limb[3], 0);
    for (int i = 0; i < 64; ++i) halve_mod(x, m);
  }
  const int k = std::countr_zero(u.limb[0]);
  if (k == 0) return;
  for (int i = 0; i < 3; ++i) u.limb[i] = u.limb[i] >> k | u.limb[i + 1] << (64 - k);
  u.limb[3] >>= k;
  for (int i = 0; i < k; ++i) halve_mod(x, m);
}

/// x = x - y mod m, for x, y < m.
inline void sub_mod(U256& x, const U256& y, const U256& m) {
  if (sub_in_place(x, y)) add_in_place(x, m);
}

/// a^-1 mod m for an odd prime m > 2^255 (p or n), by the binary extended
/// Euclidean algorithm: about 1.4 subtractions and 2 halvings per bit,
/// against the 256 squarings of a Fermat inverse. An inverse is unique, so
/// the result is the Fermat one. a may be unreduced (a < 2^256 < 2m).
U256 inverse_mod(const U256& a, const U256& m) {
  U256 u = a;
  if (u >= m) sub_in_place(u, m);
  // Zero has no inverse, and the loop below would never end on it.
  if (u.is_zero()) throw std::domain_error("modular inverse of zero");
  // Invariants: a*x1 == u and a*x2 == v (mod m), gcd(u, v) == 1, and u and v
  // are odd at the top of the loop. u == v only when both are 1.
  U256 v = m, x1(1), x2(0);
  remove_twos(u, x1, m);
  const U256 one(1);
  while (u != one && v != one) {
    if (u >= v) {
      sub_in_place(u, v);
      sub_mod(x1, x2, m);
      remove_twos(u, x1, m);
    } else {
      sub_in_place(v, u);
      sub_mod(x2, x1, m);
      remove_twos(v, x2, m);
    }
  }
  return u == one ? x1 : x2;
}

}  // namespace

const U256& field_p() { return kP; }
const U256& order_n() { return kN; }

U256 fe_add(const U256& a, const U256& b) {
  bool carry;
  U256 r = U256::add(a, b, carry);
  if (carry || r >= kP) {
    bool borrow;
    r = U256::sub(r, kP, borrow);
  }
  return r;
}

U256 fe_sub(const U256& a, const U256& b) {
  bool borrow;
  U256 r = U256::sub(a, b, borrow);
  if (borrow) {
    bool carry;
    r = U256::add(r, kP, carry);
  }
  return r;
}

U256 fe_mul(const U256& a, const U256& b) { return reduce512_mod_p(U256::mul_wide(a, b)); }

U256 fe_sqr(const U256& a) { return fe_mul(a, a); }

U256 fe_neg(const U256& a) {
  if (a.is_zero()) return a;
  bool borrow;
  return U256::sub(kP, a, borrow);
}

U256 fe_pow(const U256& a, const U256& e) {
  U256 result(1);
  U256 base = a;
  for (int i = 0; i < 256; ++i) {
    if (e.bit(i)) result = fe_mul(result, base);
    base = fe_sqr(base);
  }
  return result;
}

U256 fe_inv(const U256& a) { return inverse_mod(a, kP); }

std::optional<U256> fe_sqrt(const U256& a) {
  if (a.is_zero()) return U256(0);
  // p ≡ 3 (mod 4): the candidate root is a^((p+1)/4). p+1 fits in 256 bits.
  bool carry;
  const U256 exp = U256::add(kP, U256(1), carry).shr(2);
  assert(!carry);
  U256 root = fe_pow(a, exp);
  if (fe_sqr(root) != a) return std::nullopt;
  return root;
}

std::optional<AffinePoint> lift_x(const U256& x, bool odd_y) {
  if (!(x < kP)) return std::nullopt;
  U256 rhs = fe_add(fe_mul(fe_sqr(x), x), U256(7));
  auto y = fe_sqrt(rhs);
  if (!y) return std::nullopt;
  AffinePoint p;
  p.infinity = false;
  p.x = x;
  p.y = (y->is_odd() == odd_y) ? *y : fe_neg(*y);
  return p;
}

U256 sc_reduce(const U256& a) {
  // n > 2^255, so a < 2^256 < 2n needs at most one subtraction.
  if (a < kN) return a;
  bool borrow;
  return U256::sub(a, kN, borrow);
}

U256 sc_add(const U256& a, const U256& b) {
  bool carry;
  U512 sum = U512::from_u256(U256::add(a, b, carry));
  sum.limb[4] = carry ? 1 : 0;
  return reduce512_mod_n(sum);
}

U256 sc_mul(const U256& a, const U256& b) { return reduce512_mod_n(U256::mul_wide(a, b)); }

U256 sc_neg(const U256& a) {
  if (a.is_zero()) return a;
  bool borrow;
  return U256::sub(kN, sc_reduce(a), borrow);
}

U256 sc_inv(const U256& a) { return inverse_mod(a, kN); }

bool AffinePoint::valid() const {
  if (infinity) return true;
  if (x >= kP || y >= kP) return false;
  U256 lhs = fe_sqr(y);
  U256 rhs = fe_add(fe_mul(fe_sqr(x), x), U256(7));
  return lhs == rhs;
}

JacobianPoint JacobianPoint::infinity() { return {U256(1), U256(1), U256(0)}; }

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return infinity();
  return {p.x, p.y, U256(1)};
}

AffinePoint JacobianPoint::to_affine() const {
  if (is_infinity()) return {};
  U256 zinv = fe_inv(Z);
  U256 zinv2 = fe_sqr(zinv);
  AffinePoint p;
  p.infinity = false;
  p.x = fe_mul(X, zinv2);
  p.y = fe_mul(Y, fe_mul(zinv2, zinv));
  return p;
}

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.Y.is_zero()) return JacobianPoint::infinity();
  // dbl-2009-l formulas for a = 0.
  U256 A = fe_sqr(p.X);
  U256 B = fe_sqr(p.Y);
  U256 C = fe_sqr(B);
  U256 t = fe_sub(fe_sqr(fe_add(p.X, B)), fe_add(A, C));
  U256 D = fe_add(t, t);
  U256 E = fe_add(fe_add(A, A), A);
  U256 F = fe_sqr(E);
  JacobianPoint r;
  r.X = fe_sub(F, fe_add(D, D));
  U256 C8 = fe_add(C, C);
  C8 = fe_add(C8, C8);
  C8 = fe_add(C8, C8);
  r.Y = fe_sub(fe_mul(E, fe_sub(D, r.X)), C8);
  U256 YZ = fe_mul(p.Y, p.Z);
  r.Z = fe_add(YZ, YZ);
  return r;
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  U256 Z1Z1 = fe_sqr(p.Z);
  U256 Z2Z2 = fe_sqr(q.Z);
  U256 U1 = fe_mul(p.X, Z2Z2);
  U256 U2 = fe_mul(q.X, Z1Z1);
  U256 S1 = fe_mul(p.Y, fe_mul(Z2Z2, q.Z));
  U256 S2 = fe_mul(q.Y, fe_mul(Z1Z1, p.Z));
  if (U1 == U2) {
    if (S1 == S2) return point_double(p);
    return JacobianPoint::infinity();
  }
  U256 H = fe_sub(U2, U1);
  U256 R = fe_sub(S2, S1);
  U256 H2 = fe_sqr(H);
  U256 H3 = fe_mul(H, H2);
  U256 U1H2 = fe_mul(U1, H2);
  JacobianPoint r;
  r.X = fe_sub(fe_sub(fe_sqr(R), H3), fe_add(U1H2, U1H2));
  r.Y = fe_sub(fe_mul(R, fe_sub(U1H2, r.X)), fe_mul(S1, H3));
  r.Z = fe_mul(fe_mul(p.Z, q.Z), H);
  return r;
}

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  return point_add(p, JacobianPoint::from_affine(q));
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  U256 scalar = sc_reduce(k);
  JacobianPoint acc = JacobianPoint::infinity();
  JacobianPoint base = JacobianPoint::from_affine(p);
  int bits = scalar.bit_length();
  for (int i = bits - 1; i >= 0; --i) {
    acc = point_double(acc);
    if (scalar.bit(i)) acc = point_add(acc, base);
  }
  return acc;
}

namespace {

/// row[i][j - 1] = j * 16^i * G for i in [0, 64) and j in [1, 15]: every
/// non-zero 4-bit digit of a 256-bit scalar at every position (92 KB).
using BaseTable = std::vector<std::array<JacobianPoint, 15>>;

const BaseTable& base_table() {
  // Built on first use, so runs that never sign never pay for it. The
  // initialisation of a function-local static is thread-safe: concurrent
  // first callers wait for the one build.
  static const BaseTable table = [] {
    BaseTable rows(64);
    JacobianPoint base = JacobianPoint::from_affine(generator());  // 16^i * G
    for (auto& row : rows) {
      row[0] = base;
      for (std::size_t j = 1; j < row.size(); ++j) row[j] = point_add(row[j - 1], base);
      base = point_add(row.back(), base);
    }
    return rows;
  }();
  return table;
}

}  // namespace

JacobianPoint base_mul(const U256& k) {
  const U256 scalar = sc_reduce(k);
  const BaseTable& rows = base_table();
  JacobianPoint acc = JacobianPoint::infinity();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const unsigned digit = (scalar.limb[i / 16] >> (4 * (i % 16))) & 0xf;
    if (digit != 0) acc = point_add(acc, rows[i][digit - 1]);
  }
  return acc;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p) {
  U256 a = sc_reduce(u1);
  U256 b = sc_reduce(u2);
  JacobianPoint G = JacobianPoint::from_affine(generator());
  JacobianPoint P = JacobianPoint::from_affine(p);
  JacobianPoint GP = point_add(G, P);
  JacobianPoint acc = JacobianPoint::infinity();
  int bits = std::max(a.bit_length(), b.bit_length());
  for (int i = bits - 1; i >= 0; --i) {
    acc = point_double(acc);
    bool ba = a.bit(i), bb = b.bit(i);
    if (ba && bb)
      acc = point_add(acc, GP);
    else if (ba)
      acc = point_add(acc, G);
    else if (bb)
      acc = point_add(acc, P);
  }
  return acc;
}

}  // namespace bng::crypto
