//===- math/Rational.h - Exact rational arithmetic --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers stored as 128-bit integers, normalized so that
/// the denominator is positive and gcd(num, den) == 1. The LP layer uses
/// this type for solution points, objective values and branching, and the
/// reference solver (lp/Reference) for its whole tableau. The production
/// simplex tableau (lp/Tableau) does not: it keeps 64-bit integer rows
/// over a common row denominator, and on the operator corpus, the tuner
/// and the test suite their numerators measured at most 34 bits and
/// their denominators at most 24. Overflow raises a recoverable error
/// rather than silently wrapping.
///
/// Arithmetic runs a 64-bit fast path whenever both operands fit in 64
/// bits and every intermediate stays in range (checked with the
/// compiler's overflow intrinsics); any overflow escalates to the
/// 128-bit wide path. Canonical form is unique, so both paths produce
/// bit-identical results — the wide path is a semantic no-op, only
/// slower. The compound operators update in place instead of copying
/// through temporaries.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_MATH_RATIONAL_H
#define POLYINJECT_MATH_RATIONAL_H

#include "support/Support.h"

#include <string>

namespace pinj {

/// The wide integer backing rationals.
using Int128 = __int128;

/// An exact rational with a positive denominator, always kept in lowest
/// terms.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  /*implicit*/ Rational(Int N) : Num(N), Den(1) {}
  Rational(Int N, Int D);

  /// Numerator narrowed to 64 bits; asserts that it fits (callers use
  /// this on solution values, which are small).
  Int numerator() const;
  /// Denominator narrowed to 64 bits; asserts that it fits.
  Int denominator() const;

  bool isZero() const { return Num == 0; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }
  bool isInteger() const { return Den == 1; }

  /// \returns the value rounded toward negative infinity.
  Int floor() const;
  /// \returns the value rounded toward positive infinity.
  Int ceil() const;
  /// \returns the fractional part, in [0, 1).
  Rational fractionalPart() const;

  Rational operator-() const { return fromReduced(-Num, Den); }
  Rational operator+(const Rational &O) const {
    Rational R(*this);
    R += O;
    return R;
  }
  Rational operator-(const Rational &O) const {
    Rational R(*this);
    R -= O;
    return R;
  }
  Rational operator*(const Rational &O) const {
    Rational R(*this);
    R *= O;
    return R;
  }
  Rational operator/(const Rational &O) const {
    Rational R(*this);
    R /= O;
    return R;
  }

  Rational &operator+=(const Rational &O);
  Rational &operator-=(const Rational &O);
  Rational &operator*=(const Rational &O);
  Rational &operator/=(const Rational &O);

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }
  bool operator<(const Rational &O) const;
  bool operator<=(const Rational &O) const { return !(O < *this); }
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator>=(const Rational &O) const { return !(*this < O); }

  std::string str() const;

private:
  static Rational fromReduced(Int128 N, Int128 D) {
    Rational R;
    R.Num = N;
    R.Den = D;
    return R;
  }
  friend Rational makeRational128(Int128 N, Int128 D);

  /// Slow-path bodies shared by the compound operators.
  void addWide(const Rational &O);
  void mulWide(const Rational &O);
  void divWide(const Rational &O);

  Int128 Num;
  Int128 Den;
};

/// Builds a rational from (possibly wide) parts, reducing to lowest
/// terms; aborts on 128-bit overflow of the reduction inputs.
Rational makeRational128(Int128 N, Int128 D);

namespace rational {

/// Test/reference hook: while alive, every arithmetic op on this thread
/// takes the 128-bit wide path (without bumping the escalation counter).
/// The reference solver uses it so differential tests genuinely compare
/// against always-wide arithmetic.
class ScopedForceWide {
public:
  ScopedForceWide();
  ~ScopedForceWide();

  ScopedForceWide(const ScopedForceWide &) = delete;
  ScopedForceWide &operator=(const ScopedForceWide &) = delete;

private:
  bool Prev;
};

} // namespace rational
} // namespace pinj

#endif // POLYINJECT_MATH_RATIONAL_H
