//===- tests/math_test.cpp - support/ and math/ unit tests ----------------===//

#include "math/LinearAlgebra.h"
#include "math/Matrix.h"
#include "math/Rational.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <random>

using namespace pinj;

//===----------------------------------------------------------------------===//
// Support
//===----------------------------------------------------------------------===//

TEST(Support, GcdBasics) {
  EXPECT_EQ(gcdInt(12, 18), 6);
  EXPECT_EQ(gcdInt(-12, 18), 6);
  EXPECT_EQ(gcdInt(12, -18), 6);
  EXPECT_EQ(gcdInt(0, 7), 7);
  EXPECT_EQ(gcdInt(7, 0), 7);
  EXPECT_EQ(gcdInt(0, 0), 0);
  EXPECT_EQ(gcdInt(1, 999983), 1);
  // |INT64_MIN| is a magnitude like any other; only a result of 2^63
  // does not fit.
  EXPECT_EQ(gcdInt(INT64_MIN, 6), 2);
  EXPECT_THROW(gcdInt(INT64_MIN, 0), RecoverableError);
}

TEST(Support, LcmBasics) {
  EXPECT_EQ(lcmInt(4, 6), 12);
  EXPECT_EQ(lcmInt(0, 5), 0);
  EXPECT_EQ(lcmInt(7, 7), 7);
  EXPECT_EQ(lcmInt(-4, 6), 12);
}

TEST(Support, FloorCeilDiv) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(6, 3), 2);
  EXPECT_EQ(floorDiv(6, 3), 2);
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(Rational, NormalizesOnConstruction) {
  Rational R(6, 4);
  EXPECT_EQ(R.numerator(), 3);
  EXPECT_EQ(R.denominator(), 2);
  Rational Neg(3, -6);
  EXPECT_EQ(Neg.numerator(), -1);
  EXPECT_EQ(Neg.denominator(), 2);
}

TEST(Rational, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(5), Rational(9, 2));
  EXPECT_GE(Rational(0), Rational(0));
}

TEST(Rational, FloorCeilFraction) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_TRUE(Rational(5).isInteger());
  EXPECT_FALSE(Rational(5, 2).isInteger());
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational(3, 2).str(), "3/2");
  EXPECT_EQ(Rational(4, 2).str(), "2");
  EXPECT_EQ(Rational(-1, 3).str(), "-1/3");
}

TEST(Rational, ProductOfWideDenominators) {
  // 3/2^62 * 5/2^61 = 15/2^123: the denominator needs 128 bits.
  Rational R = Rational(Int(3), Int(1) << 62) * Rational(Int(5), Int(1) << 61);
  EXPECT_EQ(R.numerator(), Int(15));
  EXPECT_EQ(R.str(), "15/10633823966279326983230456482242756608");
  EXPECT_EQ(R * Rational(Int(1) << 62) * Rational(Int(1) << 61), Rational(15));
}

namespace {

/// Euclid on 128-bit magnitudes, independent of the library's gcds.
UInt128 euclid(UInt128 A, UInt128 B) {
  while (B != 0) {
    UInt128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// Parses Rational::str() back into (numerator, denominator).
std::pair<Int128, Int128> parts(const Rational &R) {
  std::string S = R.str();
  auto parse = [](const std::string &Digits) {
    bool Negative = !Digits.empty() && Digits[0] == '-';
    Int128 V = 0;
    for (size_t I = Negative ? 1 : 0; I < Digits.size(); ++I)
      V = V * 10 + (Digits[I] - '0');
    return Negative ? -V : V;
  };
  size_t Slash = S.find('/');
  if (Slash == std::string::npos)
    return {parse(S), 1};
  return {parse(S.substr(0, Slash)), parse(S.substr(Slash + 1))};
}

/// Reduces N / D (D != 0) to lowest terms with a positive denominator.
std::pair<Int128, Int128> lowestTerms(Int128 N, Int128 D) {
  if (D < 0) {
    N = -N;
    D = -D;
  }
  Int128 G = static_cast<Int128>(euclid(magnitude(N), magnitude(D)));
  return {N / G, D / G};
}

} // namespace

TEST(Rational, SeededPropertiesPast64Bits) {
  // Operands up to 2^62 with random widths and shared factors, so every
  // product and sum needs 128-bit intermediates and gcds are nontrivial.
  // Each result must be canonical, equal an independent 128-bit
  // computation, invert exactly, and order consistently.
  std::mt19937_64 Rng(20);
  auto operand = [&Rng](bool Positive) {
    int Bits = 1 + static_cast<int>(Rng() % 62);
    Int V = static_cast<Int>(Rng() >> (64 - Bits));
    if (Rng() % 4 == 0)
      V = (V >> 10) * 720;
    if (V == 0)
      V = 1;
    return !Positive && Rng() % 2 ? -V : V;
  };
  for (unsigned I = 0; I != 2000; ++I) {
    Int A = operand(false), B = operand(true);
    Int C = operand(false), D = operand(true);
    Rational X(A, B), Y(C, D);
    Rational Sum = X + Y, Prod = X * Y, Quot = X / Y;

    for (const Rational &R : {X, Y, Sum, Prod, Quot}) {
      auto [N, Dn] = parts(R);
      EXPECT_GT(Dn, 0);
      EXPECT_EQ(euclid(magnitude(N), magnitude(Dn)), UInt128(1));
    }
    EXPECT_EQ(parts(Sum), lowestTerms(Int128(A) * D + Int128(C) * B,
                                      Int128(B) * D));
    EXPECT_EQ(parts(Prod), lowestTerms(Int128(A) * C, Int128(B) * D));
    EXPECT_EQ(parts(Quot), lowestTerms(Int128(A) * D, Int128(B) * C));

    EXPECT_EQ(Sum - Y, X);
    EXPECT_EQ(Prod / Y, X);
    EXPECT_EQ(Quot * Y, X);
    EXPECT_EQ(Y + X, Sum);
    EXPECT_EQ(Y * X, Prod);

    // Exactly one of <, ==, > holds, and < agrees with the sign of the
    // difference, also between wide values.
    Int E = operand(false), F = operand(true);
    Rational Z(E, F);
    Rational WideY = Sum, WideZ = X + Z;
    EXPECT_EQ((X < Y) + (X == Y) + (Y < X), 1);
    EXPECT_EQ(X < Y, (Y - X).isPositive());
    EXPECT_EQ(WideY < WideZ, Y < Z);
    EXPECT_EQ(WideZ < WideY, Z < Y);
    EXPECT_EQ(WideY <= WideZ, !(Z < Y));
  }
}

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(Matrix, DotProduct) {
  EXPECT_EQ(dotProduct({1, 2, 3}, {4, 5, 6}), 32);
  EXPECT_EQ(dotProduct({}, {}), 0);
}

TEST(Matrix, NormalizeByGcd) {
  IntVector V = {4, -6, 8};
  normalizeByGcd(V);
  EXPECT_EQ(V, (IntVector{2, -3, 4}));
  IntVector Zero = {0, 0};
  normalizeByGcd(Zero);
  EXPECT_EQ(Zero, (IntVector{0, 0}));
}

TEST(Matrix, AppendAndAccess) {
  IntMatrix M(0, 3);
  M.appendRow({1, 2, 3});
  M.appendRow({4, 5, 6});
  EXPECT_EQ(M.numRows(), 2u);
  EXPECT_EQ(M.numCols(), 3u);
  EXPECT_EQ(M.at(1, 2), 6);
  M.truncateRows(1);
  EXPECT_EQ(M.numRows(), 1u);
}

TEST(Matrix, Transpose) {
  IntMatrix M(2, 3);
  M.row(0) = {1, 2, 3};
  M.row(1) = {4, 5, 6};
  IntMatrix T = M.transpose();
  EXPECT_EQ(T.numRows(), 3u);
  EXPECT_EQ(T.numCols(), 2u);
  EXPECT_EQ(T.at(2, 1), 6);
  EXPECT_EQ(T.transpose(), M);
}

TEST(Matrix, MultiplyVector) {
  IntMatrix M(2, 3);
  M.row(0) = {1, 0, 2};
  M.row(1) = {0, 3, -1};
  EXPECT_EQ(M.multiply({1, 1, 1}), (IntVector{3, 2}));
}

//===----------------------------------------------------------------------===//
// LinearAlgebra
//===----------------------------------------------------------------------===//

TEST(LinearAlgebra, RankOfIdentity) {
  IntMatrix I(3, 3);
  for (unsigned D = 0; D != 3; ++D)
    I.at(D, D) = 1;
  EXPECT_EQ(matrixRank(I), 3u);
}

TEST(LinearAlgebra, RankOfDependentRows) {
  IntMatrix M(3, 3);
  M.row(0) = {1, 2, 3};
  M.row(1) = {2, 4, 6};
  M.row(2) = {0, 1, 1};
  EXPECT_EQ(matrixRank(M), 2u);
}

TEST(LinearAlgebra, RankOfZeroAndEmpty) {
  EXPECT_EQ(matrixRank(IntMatrix(2, 4)), 0u);
  EXPECT_EQ(matrixRank(IntMatrix()), 0u);
}

TEST(LinearAlgebra, NullspaceOfEmptyIsIdentity) {
  IntMatrix Basis = nullspaceBasis(IntMatrix(0, 3));
  EXPECT_EQ(Basis.numRows(), 3u);
  EXPECT_EQ(matrixRank(Basis), 3u);
}

TEST(LinearAlgebra, NullspaceOrthogonalToRows) {
  IntMatrix M(1, 3);
  M.row(0) = {1, 0, 0};
  IntMatrix Basis = nullspaceBasis(M);
  ASSERT_EQ(Basis.numRows(), 2u);
  for (unsigned R = 0; R != 2; ++R)
    EXPECT_EQ(dotProduct(M.row(0), Basis.row(R)), 0);
}

TEST(LinearAlgebra, NullspaceWithRationalBackSubstitution) {
  // Row space spanned by (2, 1, 0) and (0, 1, 2).
  IntMatrix M(2, 3);
  M.row(0) = {2, 1, 0};
  M.row(1) = {0, 1, 2};
  IntMatrix Basis = nullspaceBasis(M);
  ASSERT_EQ(Basis.numRows(), 1u);
  EXPECT_EQ(dotProduct(M.row(0), Basis.row(0)), 0);
  EXPECT_EQ(dotProduct(M.row(1), Basis.row(0)), 0);
  EXPECT_FALSE(isZeroVector(Basis.row(0)));
}

//===----------------------------------------------------------------------===//
// Property sweeps: nullspace of random-ish matrices is orthogonal and has
// complementary rank.
//===----------------------------------------------------------------------===//

class NullspaceProperty : public ::testing::TestWithParam<int> {};

TEST_P(NullspaceProperty, RankNullityAndOrthogonality) {
  // Deterministic pseudo-random matrix from the seed parameter.
  unsigned Seed = static_cast<unsigned>(GetParam());
  auto Next = [&Seed]() {
    Seed = Seed * 1664525u + 1013904223u;
    return static_cast<Int>((Seed >> 16) % 7) - 3;
  };
  unsigned Rows = 2 + Seed % 3, Cols = 3 + Seed % 4;
  IntMatrix M(Rows, Cols);
  for (unsigned R = 0; R != Rows; ++R)
    for (unsigned C = 0; C != Cols; ++C)
      M.at(R, C) = Next();

  IntMatrix Basis = nullspaceBasis(M);
  EXPECT_EQ(matrixRank(M) + Basis.numRows(), Cols);
  for (unsigned B = 0; B != Basis.numRows(); ++B) {
    EXPECT_FALSE(isZeroVector(Basis.row(B)));
    for (unsigned R = 0; R != Rows; ++R)
      EXPECT_EQ(dotProduct(M.row(R), Basis.row(B)), 0);
  }
  EXPECT_EQ(matrixRank(Basis), Basis.numRows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NullspaceProperty,
                         ::testing::Range(1, 25));
