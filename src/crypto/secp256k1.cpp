#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace bng::crypto {

namespace {

// p = 2^256 - 2^32 - 977
constexpr U256 kP{0xfffffffefffffc2full, ~0ull, ~0ull, ~0ull};
// n = group order
constexpr U256 kN{0xbfd25e8cd0364141ull, 0xbaaedce6af48a03bull, 0xfffffffffffffffeull, ~0ull};
// 2^256 mod n = 2^256 - n, a 129-bit value
constexpr U256 kNC{0x402da1732fc9bebfull, 0x4551231950b75fc4ull, 1, 0};
// 2^256 mod p = 2^32 + 977
constexpr std::uint64_t kC = 0x1000003d1ull;

constexpr U256 kGx{0x59f2815b16f81798ull, 0x029bfcdb2dce28d9ull, 0x55a06295ce870b07ull,
                   0x79be667ef9dcbbacull};
constexpr U256 kGy{0x9c47d08ffb10d4b8ull, 0xfd17b448a6855419ull, 0x5da4fbfc0e1108a8ull,
                   0x483ada7726a3c465ull};

using u128 = unsigned __int128;
using i128 = __int128;

inline std::uint64_t lo64(u128 v) { return static_cast<std::uint64_t>(v); }

// --- Field kernels -----------------------------------------------------------
// Inline, so the point formulas below make no calls into u256.cpp. Every
// value is kept fully reduced (< p), so equal field elements compare equal.

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

/// Reduce a 512-bit product modulo p using p's special form:
/// hi*2^256 + lo == hi*(2^32+977) + lo (mod p). The first fold leaves a
/// 290-bit value, the second a value below 2^256 + 2^67, and a carry out of
/// that is folded once more; one conditional subtraction of p finishes.
inline U256 reduce512_mod_p(const U512& t) {
  u128 acc = static_cast<u128>(t.limb[4]) * kC + t.limb[0];
  U256 r;
  r.limb[0] = lo64(acc);
  for (int i = 1; i < 4; ++i) {
    acc = (acc >> 64) + static_cast<u128>(t.limb[4 + i]) * kC + t.limb[i];
    r.limb[i] = lo64(acc);
  }
  acc = (acc >> 64) * kC + r.limb[0];  // the top (< 2^34) times 2^256 mod p
  r.limb[0] = lo64(acc);
  for (int i = 1; i < 4; ++i) {
    acc = (acc >> 64) + r.limb[i];
    r.limb[i] = lo64(acc);
  }
  // A carry out leaves r below 2^67, so folding it cannot carry again.
  if (acc >> 64) add_in_place(r, U256(kC));
  // r < 2^256 < 2p. p's upper three limbs are all ones, so r >= p exactly
  // when r's are too and r's low limb is at least p's; r - p is then that
  // low-limb difference alone.
  if ((r.limb[1] & r.limb[2] & r.limb[3]) == ~0ull && r.limb[0] >= kP.limb[0])
    r = U256(r.limb[0] - kP.limb[0]);
  return r;
}

inline U256 mul(const U256& a, const U256& b) {
  return reduce512_mod_p(U256::mul_wide(a, b));
}

/// A dedicated squaring (six cross products, doubled) measured no faster
/// than the multiplication here.
inline U256 sqr(const U256& a) { return mul(a, a); }

inline U256 add(const U256& a, const U256& b) {
  U256 r = a;
  // At or past p, or past 2^256: subtracting p is adding 2^256 - p = kC,
  // modulo 2^256.
  if (add_in_place(r, b) || r >= kP) add_in_place(r, U256(kC));
  return r;
}

inline U256 sub(const U256& a, const U256& b) {
  U256 r = a;
  // Below zero: adding p is subtracting 2^256 - p = kC, modulo 2^256.
  if (sub_in_place(r, b)) sub_in_place(r, U256(kC));
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
// Pornin's optimized binary GCD ("Optimized Binary GCD for Modular
// Inversion", IACR ePrint 2020/972, Algorithm 2, with k = 32), run in
// variable time: each round makes 31 divsteps on 64-bit approximations of
// (a, b), then applies their 2x2 matrix to the full a and b and to the
// cofactors u and v.

/// -m^-1 mod 2^64 for odd m, for dividing cofactors by 2^31: Newton's
/// iteration doubles the correct low bits each step, from the 3 that
/// m * m == 1 (mod 8) gives.
inline std::uint64_t neg_inverse_2_64(std::uint64_t m) {
  std::uint64_t x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return -x;
}

constexpr int kDivsteps = 31;
/// Pornin's bound: 2*256 - 1 divsteps take a and b from at most 256 bits
/// each to a == 0, and each round makes at least 31 of them count.
constexpr int kMaxRounds = (2 * 256 - 1 + kDivsteps - 1) / kDivsteps;
constexpr std::uint64_t kLow31 = (std::uint64_t{1} << kDivsteps) - 1;

/// Bits [shift, shift + 33) of x, for shift in [32, 223].
inline std::uint64_t top33(const U256& x, int shift) {
  const int limb = shift / 64, bit = shift % 64;
  std::uint64_t w = x.limb[limb] >> bit;
  if (bit != 0 && limb < 3) w |= x.limb[limb + 1] << (64 - bit);
  return w & ((std::uint64_t{1} << 33) - 1);
}

/// (f*x + g*y + h*z) / 2^31 for x, y, z < 2^256, |f| + |g| <= 2^31 and
/// 0 <= h < 2^31, whose low 31 bits are zero: its low 256 bits, and in
/// `above` its bits from 256 up, sign-extended.
inline U256 combine(const U256& x, std::int64_t f, const U256& y, std::int64_t g,
                    const U256& z, std::int64_t h, std::int64_t& above) {
  std::uint64_t t[5];
  i128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<i128>(x.limb[i]) * f + static_cast<i128>(y.limb[i]) * g +
           static_cast<i128>(z.limb[i]) * h;
    t[i] = lo64(static_cast<u128>(acc));
    acc >>= 64;  // arithmetic: the carry keeps its sign
  }
  t[4] = lo64(static_cast<u128>(acc));
  U256 r;
  for (int i = 0; i < 4; ++i) r.limb[i] = t[i] >> kDivsteps | t[i + 1] << (64 - kDivsteps);
  above = static_cast<std::int64_t>(t[4]) >> kDivsteps;
  return r;
}

/// (f*a + g*b) / 2^31 for a, b < 2^256: it is exact, and below 2^256 in
/// magnitude. Returns its absolute value and negates the row (f, g) if it
/// was negative.
inline U256 apply_exact(const U256& a, const U256& b, std::int64_t& f, std::int64_t& g) {
  std::int64_t above;
  U256 r = combine(a, f, b, g, U256(), 0, above);
  if (above < 0) {
    U256 zero;
    sub_in_place(zero, r);
    r = zero;
    f = -f;
    g = -g;
  }
  return r;
}

/// (f*u + g*v) / 2^31 mod m for u, v < m and |f| + |g| <= 2^31. Adds the
/// multiple q*m, q < 2^31, that clears the low 31 bits (Montgomery's
/// reduction), so the sum lies in (-2^31 m, 2^32 m) and the quotient in
/// (-m, 2m); one addition or subtraction of m brings it into [0, m).
inline U256 apply_mod(const U256& u, const U256& v, std::int64_t f, std::int64_t g,
                      const U256& m, std::uint64_t neg_inv) {
  const std::uint64_t low = u.limb[0] * static_cast<std::uint64_t>(f) +
                            v.limb[0] * static_cast<std::uint64_t>(g);
  const auto q = static_cast<std::int64_t>((low * neg_inv) & kLow31);
  std::int64_t above;
  U256 r = combine(u, f, v, g, m, q, above);
  if (above < 0) {
    add_in_place(r, m);
  } else if (above > 0 || r >= m) {
    sub_in_place(r, m);
  }
  return r;
}

/// a^-1 mod m for an odd prime m > 2^255 (p or n). An inverse is unique, so
/// the result is the Fermat one. a may be unreduced (a < 2^256 < 2m).
U256 inverse_mod(const U256& x, const U256& m) {
  U256 a = x;
  if (a >= m) sub_in_place(a, m);
  // Zero has no inverse, and the rounds below would never reach b == 1.
  if (a.is_zero()) throw std::domain_error("modular inverse of zero");
  const std::uint64_t neg_inv = neg_inverse_2_64(m.limb[0]);
  // Invariants: a == x*u and b == x*v (mod m), a, b >= 0, b odd, and
  // gcd(a, b) == 1. The rounds end when a == 0, so b == 1 and v = x^-1.
  U256 b = m, u(1), v(0);
  for (int round = 0; !a.is_zero(); ++round) {
    if (round == kMaxRounds) throw std::logic_error("modular inverse: divstep bound exceeded");
    // Both approximations keep their low 31 bits exactly, which decide the
    // parities of 31 divsteps, and the 33 bits below the top bit of the
    // longer of a and b, which decide (nearly always) their comparisons.
    int top = 3;
    while (top > 0 && (a.limb[top] | b.limb[top]) == 0) --top;
    const int len = 64 * top + std::bit_width(a.limb[top] | b.limb[top]);
    std::uint64_t a_hat = a.limb[0], b_hat = b.limb[0];
    if (len > 64) {
      a_hat = (a_hat & kLow31) | top33(a, len - 33) << kDivsteps;
      b_hat = (b_hat & kLow31) | top33(b, len - 33) << kDivsteps;
    }
    // a_hat * 2^j == f0*a + g0*b and b_hat * 2^j == f1*a + g1*b after j
    // steps, in two's complement modulo 2^64.
    std::uint64_t f0 = 1, g0 = 0, f1 = 0, g1 = 1;
    // Each divstep halves a_hat; an odd a_hat first becomes a_hat - b_hat,
    // after swapping the two (and their rows) if a_hat < b_hat. Masks
    // instead of branches: the branches mispredict about half the time.
    for (int j = 0; j < kDivsteps; ++j) {
      const std::uint64_t odd = -(a_hat & 1);
      const std::uint64_t swap = odd & -static_cast<std::uint64_t>(a_hat < b_hat);
      const std::uint64_t da = (a_hat ^ b_hat) & swap;
      const std::uint64_t df = (f0 ^ f1) & swap;
      const std::uint64_t dg = (g0 ^ g1) & swap;
      a_hat ^= da, b_hat ^= da;
      f0 ^= df, f1 ^= df;
      g0 ^= dg, g1 ^= dg;
      a_hat -= b_hat & odd;
      f0 -= f1 & odd;
      g0 -= g1 & odd;
      a_hat >>= 1;
      f1 <<= 1;
      g1 <<= 1;
    }
    // A comparison the approximations got wrong leaves a or b negative:
    // apply_exact negates it, and its matrix row with it.
    auto sf0 = static_cast<std::int64_t>(f0), sg0 = static_cast<std::int64_t>(g0);
    auto sf1 = static_cast<std::int64_t>(f1), sg1 = static_cast<std::int64_t>(g1);
    const U256 next_a = apply_exact(a, b, sf0, sg0);
    b = apply_exact(a, b, sf1, sg1);
    a = next_a;
    const U256 next_u = apply_mod(u, v, sf0, sg0, m, neg_inv);
    v = apply_mod(u, v, sf1, sg1, m, neg_inv);
    u = next_u;
  }
  if (b != U256(1)) throw std::logic_error("modular inverse: gcd is not 1");
  return v;
}

// --- Point formulas ----------------------------------------------------------

/// p + (x, y) for an affine, finite second point: madd-2004-hmv, 8M + 3S.
/// Same cases as point_add: p == q doubles, p == -q gives infinity.
JacobianPoint add_affine(const JacobianPoint& p, const U256& x, const U256& y) {
  if (p.is_infinity()) return {x, y, U256(1)};
  const U256 z1z1 = sqr(p.Z);
  const U256 h = sub(mul(x, z1z1), p.X);
  const U256 r = sub(mul(y, mul(p.Z, z1z1)), p.Y);
  if (h.is_zero()) {
    if (r.is_zero()) return point_double(p);
    return JacobianPoint::infinity();
  }
  const U256 hh = sqr(h);
  const U256 hhh = mul(h, hh);
  const U256 v = mul(p.X, hh);
  JacobianPoint out;
  out.X = sub(sub(sqr(r), hhh), add(v, v));
  out.Y = sub(mul(r, sub(v, out.X)), mul(p.Y, hhh));
  out.Z = mul(p.Z, h);
  return out;
}

}  // namespace

const U256& field_p() { return kP; }
const U256& order_n() { return kN; }

U256 fe_add(const U256& a, const U256& b) { return add(a, b); }

U256 fe_sub(const U256& a, const U256& b) { return sub(a, b); }

U256 fe_mul(const U256& a, const U256& b) { return mul(a, b); }

U256 fe_sqr(const U256& a) { return sqr(a); }

U256 fe_neg(const U256& a) {
  if (a.is_zero()) return a;
  bool borrow;
  return U256::sub(kP, a, borrow);
}

U256 fe_pow(const U256& a, const U256& e) {
  U256 result(1);
  U256 base = a;
  for (int i = 0; i < 256; ++i) {
    if (e.bit(i)) result = mul(result, base);
    base = sqr(base);
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
  if (sqr(root) != a) return std::nullopt;
  return root;
}

std::optional<AffinePoint> lift_x(const U256& x, bool odd_y) {
  if (!(x < kP)) return std::nullopt;
  U256 rhs = add(mul(sqr(x), x), U256(7));
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
  U256 lhs = sqr(y);
  U256 rhs = add(mul(sqr(x), x), U256(7));
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
  U256 zinv2 = sqr(zinv);
  AffinePoint p;
  p.infinity = false;
  p.x = mul(X, zinv2);
  p.y = mul(Y, mul(zinv2, zinv));
  return p;
}

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

JacobianPoint point_double(const JacobianPoint& p) {
  if (p.is_infinity() || p.Y.is_zero()) return JacobianPoint::infinity();
  // dbl-2009-l formulas for a = 0.
  U256 A = sqr(p.X);
  U256 B = sqr(p.Y);
  U256 C = sqr(B);
  U256 t = sub(sqr(add(p.X, B)), add(A, C));
  U256 D = add(t, t);
  U256 E = add(add(A, A), A);
  U256 F = sqr(E);
  JacobianPoint r;
  r.X = sub(F, add(D, D));
  U256 C8 = add(C, C);
  C8 = add(C8, C8);
  C8 = add(C8, C8);
  r.Y = sub(mul(E, sub(D, r.X)), C8);
  U256 YZ = mul(p.Y, p.Z);
  r.Z = add(YZ, YZ);
  return r;
}

JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  U256 Z1Z1 = sqr(p.Z);
  U256 Z2Z2 = sqr(q.Z);
  U256 U1 = mul(p.X, Z2Z2);
  U256 U2 = mul(q.X, Z1Z1);
  U256 S1 = mul(p.Y, mul(Z2Z2, q.Z));
  U256 S2 = mul(q.Y, mul(Z1Z1, p.Z));
  if (U1 == U2) {
    if (S1 == S2) return point_double(p);
    return JacobianPoint::infinity();
  }
  U256 H = sub(U2, U1);
  U256 R = sub(S2, S1);
  U256 H2 = sqr(H);
  U256 H3 = mul(H, H2);
  U256 U1H2 = mul(U1, H2);
  JacobianPoint r;
  r.X = sub(sub(sqr(R), H3), add(U1H2, U1H2));
  r.Y = sub(mul(R, sub(U1H2, r.X)), mul(S1, H3));
  r.Z = mul(mul(p.Z, q.Z), H);
  return r;
}

JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  return add_affine(p, q.x, q.y);
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

/// A comb table entry: an affine point, x and y only.
struct CombPoint {
  U256 x;
  U256 y;
};

/// The comb splits a scalar's 256 bits into 8 teeth of 32 bits each: bit
/// 32*i + c is tooth i's bit at column c.
constexpr int kTeeth = 8;
constexpr int kColumns = 256 / kTeeth;

/// Entry j - 1, for j in [1, 255], is the sum of 2^(32 i) * G over the set
/// bits i of j: every column's 8-bit digit (16 KB).
using CombTable = std::array<CombPoint, (1 << kTeeth) - 1>;

CombTable build_comb_table() {
  std::array<JacobianPoint, (1 << kTeeth) - 1> points;
  JacobianPoint tooth = JacobianPoint::from_affine(generator());  // 2^(32 i) * G
  for (int i = 0; i < kTeeth; ++i) {
    const std::size_t first = (std::size_t{1} << i) - 1;  // entry 2^i
    points[first] = tooth;
    for (std::size_t j = 1; j <= first; ++j) points[first + j] = point_add(points[j - 1], tooth);
    if (i + 1 < kTeeth)
      for (int c = 0; c < kColumns; ++c) tooth = point_double(tooth);
  }
  // Montgomery's trick normalizes all 255 points with one inversion:
  // prefix[i] = Z_0 * ... * Z_i (no entry is infinity, so none is zero).
  std::array<U256, (1 << kTeeth) - 1> prefix;
  prefix[0] = points[0].Z;
  for (std::size_t i = 1; i < points.size(); ++i) prefix[i] = mul(prefix[i - 1], points[i].Z);
  U256 inv = fe_inv(prefix.back());  // 1 / (Z_0 * ... * Z_i), for i from the last down
  CombTable table;
  for (std::size_t i = points.size(); i-- > 0;) {
    const U256 zinv = i > 0 ? mul(inv, prefix[i - 1]) : inv;
    if (i > 0) inv = mul(inv, points[i].Z);
    const U256 zinv2 = sqr(zinv);
    table[i] = {mul(points[i].X, zinv2), mul(points[i].Y, mul(zinv2, zinv))};
  }
  return table;
}

const CombTable& comb_table() {
  // Built on first use, so runs that never sign never pay for it. The
  // initialisation of a function-local static is thread-safe: concurrent
  // first callers wait for the one build.
  static const CombTable table = build_comb_table();
  return table;
}

}  // namespace

JacobianPoint base_mul(const U256& k) {
  const U256 scalar = sc_reduce(k);
  const CombTable& table = comb_table();
  JacobianPoint acc = JacobianPoint::infinity();
  for (int c = kColumns - 1; c >= 0; --c) {
    acc = point_double(acc);
    unsigned digit = 0;
    for (int i = 0; i < kTeeth; ++i)
      digit |= static_cast<unsigned>(scalar.bit(kColumns * i + c)) << i;
    if (digit != 0) acc = add_affine(acc, table[digit - 1].x, table[digit - 1].y);
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
