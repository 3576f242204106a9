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
/// over a common row denominator. Overflow raises a recoverable error
/// rather than silently wrapping.
///
/// Every operation has one 128-bit path; its gcds finish in 64-bit
/// binary gcd once the operands fit (support/Support.h). Canonical form
/// is unique, so the result of an operation does not depend on how it
/// was reduced. The compound operators update in place instead of
/// copying through temporaries.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_MATH_RATIONAL_H
#define POLYINJECT_MATH_RATIONAL_H

#include "support/Support.h"

#include <string>

namespace pinj {

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

  /// Sets this to N / D (D != 0), reduced to lowest terms.
  void assign(Int128 N, Int128 D);

  Int128 Num;
  Int128 Den;
};

} // namespace pinj

#endif // POLYINJECT_MATH_RATIONAL_H
