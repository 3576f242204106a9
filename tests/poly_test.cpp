//===- tests/poly_test.cpp - poly/ unit tests -----------------------------===//

#include "poly/Dependence.h"
#include "poly/Farkas.h"
#include "poly/Set.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

using namespace pinj;

//===----------------------------------------------------------------------===//
// AffineSet
//===----------------------------------------------------------------------===//

TEST(AffineSet, EmptyAndNonEmpty) {
  AffineSet S({2, 0});
  S.addDimBounds(0, 0, 4);
  S.addDimBounds(1, 0, 4);
  EXPECT_FALSE(S.isEmpty());
  IntVector Conflict = {1, 0, -10}; // dim0 >= 10
  S.addGe(Conflict);
  EXPECT_TRUE(S.isEmpty());
}

TEST(AffineSet, EqualityMakesLine) {
  AffineSet S({2, 0});
  S.addDimBounds(0, 0, 4);
  S.addDimBounds(1, 0, 4);
  S.addEq({1, -1, 0}); // d0 == d1
  EXPECT_FALSE(S.isEmpty());
  // d0 - d1 is 0 everywhere: >= 0 and <= 0, but neither >= 1 nor <= -1.
  EXPECT_TRUE(S.isAlwaysAtLeast({1, -1, 0}, 0));
  EXPECT_TRUE(S.isAlwaysAtLeast({-1, 1, 0}, 0));
  EXPECT_FALSE(S.isAlwaysAtLeast({1, -1, 0}, 1));
  EXPECT_FALSE(S.isAlwaysAtLeast({-1, 1, 0}, 1));
}

TEST(AffineSet, MinMaxOverBox) {
  AffineSet S({2, 0});
  S.addDimBounds(0, 0, 4); // 0..3
  S.addDimBounds(1, 0, 3); // 0..2
  // 0 <= d0 + d1 <= 5, both bounds tight.
  EXPECT_TRUE(S.isAlwaysAtLeast({1, 1, 0}, 0));
  EXPECT_FALSE(S.isAlwaysAtLeast({1, 1, 0}, 1));
  EXPECT_TRUE(S.isAlwaysAtLeast({-1, -1, 0}, -5));
  EXPECT_FALSE(S.isAlwaysAtLeast({-1, -1, 0}, -4));
  // d0 - d1 + 2 <= 5, tight.
  EXPECT_TRUE(S.isAlwaysAtLeast({-1, 1, -2}, -5));
  EXPECT_FALSE(S.isAlwaysAtLeast({-1, 1, -2}, -4));
}

TEST(AffineSet, UnboundedMaximize) {
  AffineSet S({1, 0});
  S.addGe({1, 0}); // d0 >= 0 only
  // No upper bound holds, however large; the lower bound 0 is tight.
  EXPECT_FALSE(S.isAlwaysAtLeast({-1, 0}, -1000000000));
  EXPECT_TRUE(S.isAlwaysAtLeast({1, 0}, 0));
  EXPECT_FALSE(S.isAlwaysAtLeast({1, 0}, 1));
}

TEST(AffineSet, AlwaysAtLeast) {
  AffineSet S({1, 0});
  S.addDimBounds(0, 2, 6); // 2..5
  EXPECT_TRUE(S.isAlwaysAtLeast({1, 0}, 2));
  EXPECT_FALSE(S.isAlwaysAtLeast({1, 0}, 3));
  EXPECT_TRUE(S.isAlwaysAtLeast({1, 3}, 5)); // d0 + 3 >= 5
}

TEST(AffineSet, AlwaysAtLeastVacuousOnEmpty) {
  AffineSet S({1, 0});
  S.addDimBounds(0, 0, 1);
  S.addGe({1, -10}); // d0 >= 10: empty
  EXPECT_TRUE(S.isAlwaysAtLeast({1, 0}, 100));
}

TEST(AffineSet, AlwaysZero) {
  AffineSet S({2, 0});
  S.addDimBounds(0, 0, 4);
  S.addDimBounds(1, 0, 4);
  S.addEq({1, -1, 0});
  EXPECT_TRUE(S.isAlwaysZero({1, -1, 0}));
  EXPECT_FALSE(S.isAlwaysZero({1, 0, 0}));
  EXPECT_TRUE(S.isAlwaysZero({0, 0, 0}));
}

TEST(AffineSet, ParametricMinimum) {
  // { i | 0 <= i <= N - 1 } with parameter N: N - i >= 1 follows from
  // i <= N - 1, and i = N - 1 attains it.
  AffineSet S({1, 1});
  S.addGe({1, 0, 0});   // i >= 0
  S.addGe({-1, 1, -1}); // N - 1 - i >= 0
  EXPECT_TRUE(S.isAlwaysAtLeast({-1, 1, 0}, 1));
  EXPECT_FALSE(S.isAlwaysAtLeast({-1, 1, 0}, 2));
}

//===----------------------------------------------------------------------===//
// Dependence analysis
//===----------------------------------------------------------------------===//

namespace {

unsigned countKind(const std::vector<DependenceRelation> &Deps, DepKind K) {
  unsigned N = 0;
  for (const DependenceRelation &D : Deps)
    if (D.Kind == K)
      ++N;
  return N;
}

bool hasDep(const std::vector<DependenceRelation> &Deps, unsigned Src,
            unsigned Dst, DepKind K) {
  for (const DependenceRelation &D : Deps)
    if (D.SrcStmt == Src && D.DstStmt == Dst && D.Kind == K)
      return true;
  return false;
}

} // namespace

TEST(Dependence, ElementwiseHasNoDeps) {
  Kernel K = makeElementwise(8, 8);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  EXPECT_TRUE(Deps.empty());
}

TEST(Dependence, ProducerConsumerFlow) {
  Kernel K = makeProducerConsumer(8, 8);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  EXPECT_TRUE(hasDep(Deps, 0, 1, DepKind::Flow));
  // No backwards dependence.
  EXPECT_FALSE(hasDep(Deps, 1, 0, DepKind::Flow));
  EXPECT_FALSE(hasDep(Deps, 1, 0, DepKind::Anti));
}

TEST(Dependence, ReductionSelfDeps) {
  Kernel K = makeRowReduction(4, 16);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  EXPECT_TRUE(hasDep(Deps, 0, 0, DepKind::Flow));
  EXPECT_TRUE(hasDep(Deps, 0, 0, DepKind::Anti));
  EXPECT_TRUE(hasDep(Deps, 0, 0, DepKind::Output));
}

TEST(Dependence, RunningExampleStructure) {
  Kernel K = makeRunningExample(8);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  // X writes B, Y reads B.
  EXPECT_TRUE(hasDep(Deps, 0, 1, DepKind::Flow));
  // Y has a reduction on C over k.
  EXPECT_TRUE(hasDep(Deps, 1, 1, DepKind::Flow));
  EXPECT_TRUE(hasDep(Deps, 1, 1, DepKind::Output));
  // X has no self-dependences.
  EXPECT_FALSE(hasDep(Deps, 0, 0, DepKind::Flow));
  EXPECT_FALSE(hasDep(Deps, 0, 0, DepKind::Output));
}

TEST(Dependence, InputDepsOnlyWhenRequested) {
  // In the running example Y reads B[i][k] at every j: distinct
  // iterations of Y share reads, giving input (read-after-read)
  // relations when requested.
  Kernel K = makeRunningExample(8);
  std::vector<DependenceRelation> NoInput = computeDependences(K);
  EXPECT_EQ(countKind(NoInput, DepKind::Input), 0u);
  DependenceOptions Options;
  Options.IncludeInput = true;
  std::vector<DependenceRelation> WithInput = computeDependences(K, Options);
  EXPECT_GT(countKind(WithInput, DepKind::Input), 0u);
}

TEST(Dependence, RelationContainsOnlyMatchingIterations) {
  Kernel K = makeProducerConsumer(4, 4);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  ASSERT_TRUE(hasDep(Deps, 0, 1, DepKind::Flow));
  for (const DependenceRelation &D : Deps) {
    if (D.SrcStmt != 0 || D.DstStmt != 1 || D.Kind != DepKind::Flow)
      continue;
    // i_src - i_dst must be identically zero on the relation.
    IntVector Diff(D.Rel.space().width(), 0);
    Diff[0] = 1;
    Diff[2] = -1;
    EXPECT_TRUE(D.Rel.isAlwaysZero(Diff));
    IntVector DiffJ(D.Rel.space().width(), 0);
    DiffJ[1] = 1;
    DiffJ[3] = -1;
    EXPECT_TRUE(D.Rel.isAlwaysZero(DiffJ));
  }
}

TEST(Dependence, ReductionRelationIsForwardInK) {
  Kernel K = makeRowReduction(4, 8);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  for (const DependenceRelation &D : Deps) {
    if (D.SrcStmt != 0 || D.DstStmt != 0 || D.Kind != DepKind::Flow)
      continue;
    // j_dst - j_src >= 1 on the self flow relation.
    IntVector Diff(D.Rel.space().width(), 0);
    Diff[1] = -1;
    Diff[3] = 1;
    EXPECT_TRUE(D.Rel.isAlwaysAtLeast(Diff, 1));
  }
}

TEST(Dependence, PrintedSummary) {
  Kernel K = makeProducerConsumer(4, 4);
  std::vector<DependenceRelation> Deps = computeDependences(K);
  ASSERT_FALSE(Deps.empty());
  std::string Text = printDependence(K, Deps.front());
  EXPECT_NE(Text.find("->"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Farkas linearization
//===----------------------------------------------------------------------===//

TEST(Farkas, ForcesNonNegativityOverBox) {
  // P = { x | 0 <= x <= 3 }. Psi(x) = a*x + b with ILP vars a (int) and
  // b (int). Enforce Psi >= 0 over P and minimize a + b: the optimum is
  // a = b = 0; then requiring b <= -1 forces infeasibility unless a can
  // compensate... with x = 0 in P, Psi(0) = b >= 0 always, so b <= -1 is
  // infeasible.
  AffineSet P({1, 0});
  P.addDimBounds(0, 0, 4);

  IlpBuilder B;
  unsigned A = B.addVar("a", true);
  unsigned Bv = B.addVar("b", true);
  B.addUpperBound(A, 10);
  B.addUpperBound(Bv, 10);
  VarAffineForm Psi(P.space());
  Psi.dimCoeff(0).addTerm(A, 1);
  Psi.constCoeff().addTerm(Bv, 1);
  addFarkasNonNegative(B, P, Psi, "t");
  SparseForm Obj;
  Obj.addTerm(A, 1);
  Obj.addTerm(Bv, 1);
  B.addObjective(Obj);
  IlpResult R = B.solve();
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[A], Rational(0));
  EXPECT_EQ(R.Point[Bv], Rational(0));
}

TEST(Farkas, AllowsCompensatingCoefficients) {
  // P = { x | 1 <= x <= 3 }. Psi = a*x - 2: needs a >= 2/... at x = 1,
  // a - 2 >= 0 -> a >= 2 (a integer, x >= 1 makes a = 2 sufficient).
  AffineSet P({1, 0});
  P.addDimBounds(0, 1, 4);
  IlpBuilder B;
  unsigned A = B.addVar("a", true);
  B.addUpperBound(A, 10);
  VarAffineForm Psi(P.space());
  Psi.dimCoeff(0).addTerm(A, 1);
  Psi.constCoeff().addConstant(-2);
  addFarkasNonNegative(B, P, Psi, "t");
  SparseForm Obj;
  Obj.addTerm(A, 1);
  B.addObjective(Obj);
  IlpResult R = B.solve();
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[A], Rational(2));
}

TEST(Farkas, HandlesEqualityConstrainedSets) {
  // P = { (x, y) | x == y, 0 <= x <= 3 }. Psi = a*x - a*y is zero on P
  // for any a, so enforcing Psi >= 0 leaves a free; minimizing a - 1
  // after requiring a >= 1 gives a = 1.
  AffineSet P({2, 0});
  P.addDimBounds(0, 0, 4);
  P.addDimBounds(1, 0, 4);
  P.addEq({1, -1, 0});
  IlpBuilder B;
  unsigned A = B.addVar("a", true);
  B.addUpperBound(A, 10);
  VarAffineForm Psi(P.space());
  Psi.dimCoeff(0).addTerm(A, 1);
  Psi.dimCoeff(1).addTerm(A, -1);
  addFarkasNonNegative(B, P, Psi, "t");
  SparseForm AtLeastOne;
  AtLeastOne.addTerm(A, 1);
  AtLeastOne.addConstant(-1);
  B.addGe(AtLeastOne);
  SparseForm Obj;
  Obj.addTerm(A, 1);
  B.addObjective(Obj);
  IlpResult R = B.solve();
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[A], Rational(1));
}

//===----------------------------------------------------------------------===//
// Property sweep: Farkas certificate agrees with direct minimization for
// concrete coefficient choices.
//===----------------------------------------------------------------------===//

class FarkasProperty : public ::testing::TestWithParam<int> {};

TEST_P(FarkasProperty, AgreesWithDirectCheck) {
  Int CoeffA = GetParam() % 5 - 2;
  Int CoeffB = (GetParam() / 5) % 5 - 2;
  AffineSet P({1, 0});
  P.addDimBounds(0, 0, 5);
  // Direct check: is CoeffA * x + CoeffB >= 0 over 0..4?
  bool Direct = P.isAlwaysAtLeast({CoeffA, CoeffB}, 0);
  // Farkas check: fix the coefficients as constants.
  IlpBuilder B;
  VarAffineForm Psi(P.space());
  Psi.dimCoeff(0).addConstant(CoeffA);
  Psi.constCoeff().addConstant(CoeffB);
  addFarkasNonNegative(B, P, Psi, "t");
  bool ViaFarkas = B.solve().isOptimal();
  EXPECT_EQ(Direct, ViaFarkas)
      << "CoeffA=" << CoeffA << " CoeffB=" << CoeffB;
}

INSTANTIATE_TEST_SUITE_P(Grid, FarkasProperty, ::testing::Range(0, 25));
