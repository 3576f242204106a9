//===- math/Rational.cpp --------------------------------------------------===//

#include "math/Rational.h"

using namespace pinj;

namespace {

bool fits64(Int128 V) { return V >= INT64_MIN && V <= INT64_MAX; }

Int128 gcd128(Int128 A, Int128 B) {
  return static_cast<Int128>(gcdMag128(magnitude(A), magnitude(B)));
}

/// V / G for a divisor G of V. Most gcds are 1, and skipping the 128-bit
/// division (a library call) for them shows on perfbench `tune`.
Int128 divideOut(Int128 V, Int128 G) { return G == 1 ? V : V / G; }

Int128 mul128(Int128 A, Int128 B) {
  Int128 R;
  if (__builtin_mul_overflow(A, B, &R))
    raiseError(StatusCode::Overflow, "math.rational",
               "128-bit overflow in rational multiplication");
  return R;
}

Int128 add128(Int128 A, Int128 B) {
  Int128 R;
  if (__builtin_add_overflow(A, B, &R))
    raiseError(StatusCode::Overflow, "math.rational",
               "128-bit overflow in rational addition");
  return R;
}

} // namespace

void Rational::assign(Int128 N, Int128 D) {
  assert(D != 0 && "rational with zero denominator");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  Int128 G = gcd128(N, D);
  Num = divideOut(N, G);
  Den = divideOut(D, G);
}

Rational::Rational(Int N, Int D) { assign(N, D); }

Int Rational::numerator() const {
  if (Num > INT64_MAX || Num < INT64_MIN)
    raiseError(StatusCode::Overflow, "math.rational",
               "rational numerator exceeds 64 bits");
  return static_cast<Int>(Num);
}

Int Rational::denominator() const {
  if (Den > INT64_MAX)
    raiseError(StatusCode::Overflow, "math.rational",
               "rational denominator exceeds 64 bits");
  return static_cast<Int>(Den);
}

Int Rational::floor() const {
  Int128 Q = Num / Den;
  if (Num % Den != 0 && Num < 0)
    --Q;
  if (Q > INT64_MAX || Q < INT64_MIN)
    raiseError(StatusCode::Overflow, "math.rational",
               "rational floor exceeds 64 bits");
  return static_cast<Int>(Q);
}

Rational &Rational::operator+=(const Rational &O) {
  if (O.Num == 0)
    return *this;
  if (Num == 0)
    return *this = O;
  if (Den == 1 && O.Den == 1) {
    Num = add128(Num, O.Num);
    return *this;
  }
  // a/b + c/d with g = gcd(b, d): (a*(d/g) + c*(b/g)) / (b*(d/g)).
  Int128 G = gcd128(Den, O.Den);
  Int128 DenA = divideOut(Den, G);
  Int128 DenB = divideOut(O.Den, G);
  assign(add128(mul128(Num, DenB), mul128(O.Num, DenA)),
         mul128(mul128(DenA, DenB), G));
  return *this;
}

Rational &Rational::operator-=(const Rational &O) { return *this += -O; }

Rational &Rational::operator*=(const Rational &O) {
  if (Num == 0 || O.Num == 0) {
    Num = 0;
    Den = 1;
    return *this;
  }
  if (Den == 1 && O.Den == 1) {
    Num = mul128(Num, O.Num);
    return *this;
  }
  // Cross-reduce: the product of the reduced factors is already in
  // lowest terms, no trailing gcd needed.
  Int128 G1 = gcd128(Num, O.Den);
  Int128 G2 = gcd128(O.Num, Den);
  Int128 N = mul128(divideOut(Num, G1), divideOut(O.Num, G2));
  Den = mul128(divideOut(Den, G2), divideOut(O.Den, G1));
  Num = N;
  return *this;
}

Rational &Rational::operator/=(const Rational &O) {
  assert(!O.isZero() && "rational division by zero");
  if (Num == 0)
    return *this;
  // (a/b) / (c/d) = (a*d) / (b*c), cross-reduced so the result is
  // already canonical up to the sign of the denominator.
  Int128 G1 = gcd128(Num, O.Num);
  Int128 G2 = gcd128(Den, O.Den);
  Int128 N = mul128(divideOut(Num, G1), divideOut(O.Den, G2));
  Int128 D = mul128(divideOut(Den, G2), divideOut(O.Num, G1));
  if (D < 0) {
    N = -N;
    D = -D;
  }
  Num = N;
  Den = D;
  return *this;
}

namespace {

/// Compares A/B with C/D (B, D > 0) exactly, without any multiplication
/// (immune to overflow), via the continued-fraction (Euclidean)
/// algorithm. \returns -1, 0 or +1.
int compareFractionsExact(Int128 A, Int128 B, Int128 C, Int128 D) {
  // Signs first; then reduce to the nonnegative comparison.
  bool NegL = A < 0, NegR = C < 0;
  if (NegL != NegR)
    return NegL ? -1 : 1;
  if (NegL)
    return compareFractionsExact(-C, D, -A, B);
  // Iterative Euclidean comparison of A/B vs C/D with everything >= 0.
  for (;;) {
    Int128 Q1 = A / B, Q2 = C / D;
    if (Q1 != Q2)
      return Q1 < Q2 ? -1 : 1;
    Int128 R1 = A - Q1 * B, R2 = C - Q2 * D;
    if (R1 == 0 && R2 == 0)
      return 0;
    if (R1 == 0)
      return -1;
    if (R2 == 0)
      return 1;
    // A/B ? C/D  <=>  (Q + R1/B) ? (Q + R2/D)  <=>  R1/B ? R2/D
    // <=>  D/R2 ? B/R1 (reciprocals flip the order).
    Int128 NewA = D, NewB = R2, NewC = B, NewD = R1;
    A = NewA;
    B = NewB;
    C = NewC;
    D = NewD;
  }
}

} // namespace

bool Rational::operator<(const Rational &O) const {
  if (Den == O.Den)
    return Num < O.Num;
  // 64-bit operands: a/b < c/d <=> a*d < c*b, and 64x64 products always
  // fit in 128 bits.
  if (fits64(Num) && fits64(Den) && fits64(O.Num) && fits64(O.Den))
    return Num * O.Den < O.Num * Den;
  return compareFractionsExact(Num, Den, O.Num, O.Den) < 0;
}

std::string Rational::str() const {
  auto toString = [](Int128 V) {
    if (V == 0)
      return std::string("0");
    bool Negative = V < 0;
    std::string Digits;
    while (V != 0) {
      int Digit = static_cast<int>(V % 10);
      Digits.insert(Digits.begin(),
                    static_cast<char>('0' + (Digit < 0 ? -Digit : Digit)));
      V /= 10;
    }
    return Negative ? "-" + Digits : Digits;
  };
  if (Den == 1)
    return toString(Num);
  return toString(Num) + "/" + toString(Den);
}
