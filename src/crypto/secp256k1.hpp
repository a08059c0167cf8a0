// secp256k1 elliptic-curve arithmetic, from scratch.
//
// Curve: y^2 = x^3 + 7 over F_p, p = 2^256 - 2^32 - 977.
// Group order n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFFD25E8 8CD03641 41.
//
// Field (mod p) and scalar (mod n) arithmetic both reduce by the special
// form of their modulus: 2^256 is congruent to a small constant, 2^32 + 977
// mod p and 2^256 - n (129 bits) mod n. Scalar arithmetic is on the hot path
// because every Bitcoin-NG microblock is signed. Both inverses, mod p (to
// leave Jacobian coordinates) and mod n (one per signature), run one binary
// extended Euclidean routine, whose time depends on its input. Not
// constant-time: this is a protocol simulator, not a wallet.
#pragma once

#include <optional>

#include "crypto/u256.hpp"

namespace bng::crypto {

/// Field modulus p and group order n.
const U256& field_p();
const U256& order_n();

// --- Field element operations (values always reduced mod p) ---------------
U256 fe_add(const U256& a, const U256& b);
U256 fe_sub(const U256& a, const U256& b);
U256 fe_mul(const U256& a, const U256& b);
U256 fe_sqr(const U256& a);
U256 fe_neg(const U256& a);
U256 fe_pow(const U256& a, const U256& e);
/// a^-1 mod p; throws std::domain_error if a == 0 (mod p).
U256 fe_inv(const U256& a);

/// Square root mod p (p ≡ 3 mod 4, so sqrt(a) = a^((p+1)/4) when it exists).
/// Returns nullopt for quadratic non-residues.
std::optional<U256> fe_sqrt(const U256& a);

// --- Scalar operations (mod n) ---------------------------------------------
U256 sc_reduce(const U256& a);                  // a mod n
U256 sc_add(const U256& a, const U256& b);
U256 sc_mul(const U256& a, const U256& b);
U256 sc_neg(const U256& a);
/// a^-1 mod n; throws std::domain_error if a == 0 (mod n).
U256 sc_inv(const U256& a);

/// Affine point; infinity iff `infinity` is true.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;

  /// Is the point on the curve (or infinity)?
  [[nodiscard]] bool valid() const;
};

/// Jacobian point (X/Z^2, Y/Z^3); infinity iff Z == 0.
struct JacobianPoint {
  U256 X;
  U256 Y;
  U256 Z;

  static JacobianPoint infinity();
  static JacobianPoint from_affine(const AffinePoint& p);
  [[nodiscard]] AffinePoint to_affine() const;
  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }
};

/// Curve generator G.
const AffinePoint& generator();

/// Lift an x-coordinate to a curve point with the requested y parity
/// (compressed-key decoding). Returns nullopt if x is not on the curve.
std::optional<AffinePoint> lift_x(const U256& x, bool odd_y);

JacobianPoint point_double(const JacobianPoint& p);
JacobianPoint point_add(const JacobianPoint& p, const JacobianPoint& q);
JacobianPoint point_add_affine(const JacobianPoint& p, const AffinePoint& q);

/// k * P (double-and-add). k is interpreted mod n. The generic path for any
/// point, and the test oracle for base_mul.
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);

/// k * G from a table of precomputed multiples of G, built once per process
/// on first use: one point_add per non-zero 4-bit digit of k, no doublings.
/// k is interpreted mod n. Same point as scalar_mul(k, generator()).
JacobianPoint base_mul(const U256& k);

/// u1*G + u2*P computed with interleaved doubling (Shamir's trick).
JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p);

}  // namespace bng::crypto
