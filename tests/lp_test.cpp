//===- tests/lp_test.cpp - lp/ unit and property tests --------------------===//

#include "lp/Budget.h"
#include "lp/Builder.h"
#include "lp/Ilp.h"
#include "lp/LexMin.h"
#include "lp/Simplex.h"

#include <gtest/gtest.h>

#include <memory>

using namespace pinj;

//===----------------------------------------------------------------------===//
// Simplex
//===----------------------------------------------------------------------===//

TEST(Simplex, SimpleMinimization) {
  // min x0 + x1 s.t. x0 + x1 >= 3, x0 <= 2 (x >= 0).
  LpProblem Lp(2);
  Lp.addGe({1, 1}, -3);
  Lp.addUpperBound(0, 2);
  Lp.Objective = {1, 1};
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(3));
}

TEST(Simplex, DetectsInfeasible) {
  // x0 >= 3 and x0 <= 1.
  LpProblem Lp(1);
  Lp.addGe({1}, -3);
  Lp.addLe({1}, -1);
  Lp.Objective = {1};
  EXPECT_EQ(solveLp(Lp).Status, LpResult::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x0 with x0 unbounded above.
  LpProblem Lp(1);
  Lp.addGe({1}, 0);
  Lp.Objective = {-1};
  EXPECT_EQ(solveLp(Lp).Status, LpResult::Unbounded);
}

TEST(Simplex, EqualityConstraints) {
  // min x0 s.t. x0 + x1 == 5, x1 <= 3 -> x0 = 2.
  LpProblem Lp(2);
  Lp.addEq({1, 1}, -5);
  Lp.addUpperBound(1, 3);
  Lp.Objective = {1, 0};
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(2));
  EXPECT_EQ(R.Point[0], Rational(2));
  EXPECT_EQ(R.Point[1], Rational(3));
}

TEST(Simplex, FractionalOptimum) {
  // min x0 s.t. 2*x0 >= 3 -> x0 = 3/2.
  LpProblem Lp(1);
  Lp.addGe({2}, -3);
  Lp.Objective = {1};
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(3, 2));
}

TEST(Simplex, RedundantConstraints) {
  LpProblem Lp(2);
  Lp.addGe({1, 0}, -1); // x0 >= 1
  Lp.addGe({1, 0}, -1); // duplicate
  Lp.addGe({2, 0}, -2); // scaled duplicate
  Lp.addEq({0, 1}, 0);  // x1 == 0
  Lp.Objective = {1, 1};
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(1));
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many tied vertices; Bland's rule must not cycle.
  LpProblem Lp(3);
  Lp.addGe({1, 1, 0}, 0);
  Lp.addGe({0, 1, 1}, 0);
  Lp.addGe({1, 0, 1}, 0);
  Lp.addLe({1, 1, 1}, -1); // sum <= 1
  Lp.Objective = {-1, -1, -1};
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(-1));
}

TEST(Simplex, ObjectiveConstantIncluded) {
  LpProblem Lp(1);
  Lp.addGe({1}, -2);
  Lp.Objective = {1};
  Lp.ObjectiveConstant = 10;
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(12));
}

//===----------------------------------------------------------------------===//
// ILP
//===----------------------------------------------------------------------===//

TEST(Ilp, IntegerRoundingUp) {
  // min x s.t. 2x >= 3, x integer -> x = 2 (LP gives 3/2).
  IlpProblem P(1);
  P.Lp.addGe({2}, -3);
  P.Lp.Objective = {1};
  P.markInteger(0);
  IlpResult R = solveIlp(P);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(2));
  EXPECT_EQ(R.Point[0], Rational(2));
}

TEST(Ilp, MixedIntegerKeepsContinuousFractional) {
  // min x + y s.t. 2x >= 3 (x int), 2y >= 1 (y continuous).
  IlpProblem P(2);
  P.Lp.addGe({2, 0}, -3);
  P.Lp.addGe({0, 2}, -1);
  P.Lp.Objective = {1, 1};
  P.markInteger(0);
  IlpResult R = solveIlp(P);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[0], Rational(2));
  EXPECT_EQ(R.Point[1], Rational(1, 2));
}

TEST(Ilp, InfeasibleIntegerGap) {
  // 1/3 <= x <= 2/3 has rational points but no integer ones.
  IlpProblem P(1);
  P.Lp.addGe({3}, -1);
  P.Lp.addLe({3}, -2);
  P.Lp.Objective = {1};
  P.markInteger(0);
  EXPECT_EQ(solveIlp(P).Status, IlpResult::Infeasible);
}

TEST(Ilp, KnapsackStyle) {
  // max 3a + 4b s.t. 2a + 3b <= 7, a,b integer in [0, 5].
  IlpProblem P(2);
  P.Lp.addLe({2, 3}, -7);
  P.Lp.addUpperBound(0, 5);
  P.Lp.addUpperBound(1, 5);
  P.Lp.Objective = {-3, -4};
  P.markInteger(0);
  P.markInteger(1);
  IlpResult R = solveIlp(P);
  ASSERT_TRUE(R.isOptimal());
  // Optimum: a=3 (wait: 2*3=6 <= 7, b=0 -> 9) vs a=2,b=1 -> 10.
  EXPECT_EQ(R.Value, Rational(-10));
}

/// Brute-force reference for small bounded ILPs.
static std::optional<Int> bruteForceMin(const IlpProblem &P, Int Bound) {
  // All variables integer in [0, Bound]; enumerate.
  unsigned N = P.numVars();
  std::vector<Int> X(N, 0);
  std::optional<Int> Best;
  for (;;) {
    bool Feasible = true;
    for (const LpConstraint &C : P.Lp.Constraints) {
      Int V = C.Constant;
      for (unsigned I = 0; I != N; ++I)
        V += C.Coeffs[I] * X[I];
      if ((C.Kind == LpConstraint::GE && V < 0) ||
          (C.Kind == LpConstraint::LE && V > 0) ||
          (C.Kind == LpConstraint::EQ && V != 0)) {
        Feasible = false;
        break;
      }
    }
    if (Feasible) {
      Int Obj = 0;
      for (unsigned I = 0; I != N; ++I)
        Obj += P.Lp.Objective[I] * X[I];
      if (!Best || Obj < *Best)
        Best = Obj;
    }
    unsigned D = 0;
    while (D < N && ++X[D] > Bound) {
      X[D] = 0;
      ++D;
    }
    if (D == N)
      break;
  }
  return Best;
}

class IlpVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(IlpVsBruteForce, MatchesEnumeration) {
  unsigned Seed = static_cast<unsigned>(GetParam()) * 2654435761u + 17u;
  auto Next = [&Seed]() {
    Seed = Seed * 1664525u + 1013904223u;
    return static_cast<Int>((Seed >> 16) % 7) - 3;
  };
  const Int Bound = 4;
  unsigned NumVars = 2 + Seed % 2;
  IlpProblem P(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    P.markInteger(V);
    P.Lp.addUpperBound(V, Bound);
  }
  unsigned NumConstraints = 2 + Seed % 3;
  for (unsigned C = 0; C != NumConstraints; ++C) {
    IntVector Coeffs(NumVars);
    for (unsigned V = 0; V != NumVars; ++V)
      Coeffs[V] = Next();
    Int Constant = Next() + 2;
    if (C % 2 == 0)
      P.Lp.addGe(Coeffs, Constant);
    else
      P.Lp.addLe(Coeffs, Constant);
  }
  P.Lp.Objective.assign(NumVars, 0);
  for (unsigned V = 0; V != NumVars; ++V)
    P.Lp.Objective[V] = Next();

  std::optional<Int> Expected = bruteForceMin(P, Bound);
  IlpResult R = solveIlp(P);
  if (!Expected) {
    EXPECT_EQ(R.Status, IlpResult::Infeasible);
    return;
  }
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Value, Rational(*Expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpVsBruteForce, ::testing::Range(1, 40));

//===----------------------------------------------------------------------===//
// LexMin
//===----------------------------------------------------------------------===//

TEST(LexMin, TwoLevels) {
  // Feasible set: x + y >= 4, x,y in [0, 10] integer.
  // Lex-minimize (x, y): x = 0 first, then y = 4.
  IlpProblem P(2);
  P.Lp.addGe({1, 1}, -4);
  P.Lp.addUpperBound(0, 10);
  P.Lp.addUpperBound(1, 10);
  P.markInteger(0);
  P.markInteger(1);
  std::vector<LexObjective> Obj;
  Obj.emplace_back(IntVector{1, 0});
  Obj.emplace_back(IntVector{0, 1});
  IlpResult R = solveLexMin(P, Obj);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[0], Rational(0));
  EXPECT_EQ(R.Point[1], Rational(4));
}

TEST(LexMin, OrderMatters) {
  IlpProblem P(2);
  P.Lp.addGe({1, 1}, -4);
  P.Lp.addUpperBound(0, 10);
  P.Lp.addUpperBound(1, 10);
  P.markInteger(0);
  P.markInteger(1);
  std::vector<LexObjective> Obj;
  Obj.emplace_back(IntVector{0, 1}); // y first
  Obj.emplace_back(IntVector{1, 0});
  IlpResult R = solveLexMin(P, Obj);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[0], Rational(4));
  EXPECT_EQ(R.Point[1], Rational(0));
}

TEST(LexMin, EmptyObjectivesIsFeasibility) {
  IlpProblem P(1);
  P.Lp.addGe({1}, -2);
  P.markInteger(0);
  IlpResult R = solveLexMin(P, {});
  EXPECT_TRUE(R.isOptimal());
}

TEST(LexMin, PropagatesInfeasibility) {
  IlpProblem P(1);
  P.Lp.addGe({1}, -2);
  P.Lp.addLe({1}, -1);
  std::vector<LexObjective> Obj;
  Obj.emplace_back(IntVector{1});
  EXPECT_EQ(solveLexMin(P, Obj).Status, IlpResult::Infeasible);
}

//===----------------------------------------------------------------------===//
// IlpBuilder
//===----------------------------------------------------------------------===//

TEST(IlpBuilder, SparseFormDensify) {
  SparseForm F;
  F.addTerm(0, 2);
  F.addTerm(2, -1);
  F.addTerm(0, 3); // accumulates
  F.addConstant(7);
  IntVector Dense = F.densify(3);
  EXPECT_EQ(Dense, (IntVector{5, 0, -1}));
  EXPECT_EQ(F.Constant, 7);
}

TEST(IlpBuilder, AddScaled) {
  SparseForm A;
  A.addTerm(0, 1);
  A.addConstant(2);
  SparseForm B;
  B.addTerm(1, 3);
  B.addConstant(-1);
  A.addScaled(B, 2);
  IntVector Dense = A.densify(2);
  EXPECT_EQ(Dense, (IntVector{1, 6}));
  EXPECT_EQ(A.Constant, 0);
}

TEST(IlpBuilder, EndToEndSolve) {
  IlpBuilder B;
  unsigned X = B.addVar(/*IsInteger=*/true);
  unsigned Y = B.addVar(/*IsInteger=*/true);
  B.addUpperBound(X, 10);
  B.addUpperBound(Y, 10);
  SparseForm Sum; // x + y - 4 >= 0
  Sum.addTerm(X, 1);
  Sum.addTerm(Y, 1);
  Sum.addConstant(-4);
  B.addGe(Sum);
  SparseForm ObjX;
  ObjX.addTerm(X, 1);
  B.addObjective(ObjX);
  SparseForm ObjY;
  ObjY.addTerm(Y, 1);
  B.addObjective(ObjY);
  IlpResult R = B.solve();
  ASSERT_TRUE(R.isOptimal());
  EXPECT_EQ(R.Point[X], Rational(0));
  EXPECT_EQ(R.Point[Y], Rational(4));
}

TEST(IlpBuilder, TruncateRemovesConstraints) {
  IlpBuilder B;
  unsigned X = B.addVar(/*IsInteger=*/true);
  B.addUpperBound(X, 10);
  unsigned Mark = B.numConstraints();
  SparseForm Floor; // x >= 5
  Floor.addTerm(X, 1);
  Floor.addConstant(-5);
  B.addGe(Floor);
  SparseForm Obj;
  Obj.addTerm(X, 1);
  B.addObjective(Obj);
  IlpResult R1 = B.solve();
  ASSERT_TRUE(R1.isOptimal());
  EXPECT_EQ(R1.Point[X], Rational(5));
  B.truncate(Mark, 1);
  IlpResult R2 = B.solve();
  ASSERT_TRUE(R2.isOptimal());
  EXPECT_EQ(R2.Point[X], Rational(0));
}

//===----------------------------------------------------------------------===//
// Robustness
//===----------------------------------------------------------------------===//

TEST(Simplex, KleeMintyLikeStillTerminates) {
  // A small Klee-Minty-style problem with strongly skewed coefficients:
  // Dantzig pivoting may wander, the degenerate-streak switch to Bland
  // guarantees termination with the exact optimum.
  const unsigned N = 6;
  LpProblem Lp(N);
  for (unsigned I = 0; I != N; ++I) {
    IntVector Row(N, 0);
    Int Scale = 1;
    for (unsigned J = 0; J < I; ++J) {
      Row[J] = 2 * Scale;
      Scale *= 2;
    }
    Row[I] = 1;
    Int Bound = 1;
    for (unsigned J = 0; J != I; ++J)
      Bound *= 5;
    Lp.addLe(std::move(Row), -Bound);
  }
  Lp.Objective.assign(N, 0);
  Int W = 1;
  for (unsigned I = N; I-- > 0;) {
    Lp.Objective[I] = -W;
    W *= 2;
  }
  LpResult R = solveLp(Lp);
  ASSERT_TRUE(R.isOptimal());
  EXPECT_TRUE(R.Value.isNegative());
}

TEST(Rational, LargeMagnitudesStayExact) {
  Rational Big(Int(1) << 62, 3);
  Rational Small(1, Int(1) << 62);
  Rational Product = Big * Small;
  EXPECT_EQ(Product, Rational(1, 3));
  // Comparison of near-equal huge fractions must be exact, where a
  // double would round them together.
  Rational A((Int(1) << 61) + 1, Int(1) << 61);
  Rational B(1);
  EXPECT_GT(A, B);
  EXPECT_LT(B, A);
}

TEST(Rational, EuclideanComparisonNoOverflow)
{
  // Cross multiplication of these would overflow 128 bits; the
  // continued-fraction comparison must still be exact.
  Rational A(Int(1) << 62, (Int(1) << 62) - 1);
  Rational B((Int(1) << 62) + 1, Int(1) << 62);
  // A = 1 + 1/(2^62-1) > B = 1 + 1/2^62.
  EXPECT_GT(A, B);
  EXPECT_LT(B, A);
  EXPECT_NE(A, B);
}

//===----------------------------------------------------------------------===//
// Budget: bulk charging
//===----------------------------------------------------------------------===//

namespace {

/// What one way of charging a block of work left behind, under a stack of
/// scopes (outermost first).
struct ChargeOutcome {
  bool Ok = false;       ///< Charged without tripping (or admitted).
  SolverWork Charged;    ///< The threadCharges() it added.
  SolverWork Chargeable; ///< The threadChargeable() it added.
  /// Units of \p ProbeNodes' kind charged one at a time afterwards
  /// before some scope trips (capped at 64).
  unsigned Left = 0;
};

ChargeOutcome chargeUnder(const std::vector<SolverBudget> &Caps,
                          const SolverWork &W, bool Bulk, bool ProbeNodes) {
  std::vector<std::unique_ptr<budget::BudgetScope>> Scopes;
  for (const SolverBudget &B : Caps)
    Scopes.push_back(std::make_unique<budget::BudgetScope>(B));
  const SolverWork Charged0 = budget::threadCharges();
  const SolverWork Chargeable0 = budget::threadChargeable();
  ChargeOutcome Out;
  if (Bulk) {
    Out.Ok = budget::chargeWork(W);
  } else {
    // The simplex charges a pivot only while some scope is active.
    Out.Ok = true;
    for (std::uint64_t I = 0; I != W.Nodes; ++I)
      Out.Ok &= budget::chargeNode();
    for (std::uint64_t I = 0; I != W.Pivots; ++I) {
      if (budget::active())
        Out.Ok &= budget::chargePivot();
      else
        budget::skipPivot();
    }
  }
  const SolverWork Charged1 = budget::threadCharges();
  const SolverWork Chargeable1 = budget::threadChargeable();
  Out.Charged = {Charged1.Pivots - Charged0.Pivots,
                 Charged1.Nodes - Charged0.Nodes};
  Out.Chargeable = {Chargeable1.Pivots - Chargeable0.Pivots,
                    Chargeable1.Nodes - Chargeable0.Nodes};
  while (Out.Left != 64 &&
         (ProbeNodes ? budget::chargeNode() : budget::chargePivot()))
    ++Out.Left;
  // Scopes must close innermost first.
  while (!Scopes.empty())
    Scopes.pop_back();
  return Out;
}

} // namespace

// chargeWork admits a block exactly when charging it one unit at a time
// would not trip, and then leaves every scope as that run does: caps
// N-1, N and N+1 against N units, alone and nested, on pivots and nodes.
TEST(BudgetBulkCharge, TripsWhereOneAtATimeChargingTrips) {
  const std::uint64_t N = 5;
  auto pivots = [](std::uint64_t Cap) {
    return SolverBudget{/*MaxPivots=*/Cap, /*MaxIlpNodes=*/0, /*WallMs=*/0};
  };
  auto nodes = [](std::uint64_t Cap) {
    return SolverBudget{/*MaxPivots=*/0, /*MaxIlpNodes=*/Cap, /*WallMs=*/0};
  };
  std::vector<std::vector<SolverBudget>> Stacks = {{}};
  for (std::uint64_t Cap : {N - 1, N, N + 1}) {
    Stacks.push_back({pivots(Cap)});
    Stacks.push_back({nodes(Cap)});
    Stacks.push_back({SolverBudget{Cap, Cap, 0}});
    // Nested: the tighter cap may sit outside or inside.
    Stacks.push_back({pivots(N + 1), pivots(Cap)});
    Stacks.push_back({pivots(Cap), pivots(N + 1)});
    Stacks.push_back({nodes(Cap), pivots(N + 1)});
    Stacks.push_back({pivots(N + 1), nodes(Cap)});
    Stacks.push_back({SolverBudget{N + 1, Cap, 0}, SolverBudget{Cap, N + 1, 0}});
  }
  const SolverWork Works[] = {{N, 0}, {0, N}, {N, N}, {N, 1}, {1, N}};
  unsigned Admitted = 0, Refused = 0;
  for (std::size_t S = 0; S != Stacks.size(); ++S) {
    for (const SolverWork &W : Works) {
      for (bool ProbeNodes : {false, true}) {
        const std::string What = "stack " + std::to_string(S) + " work " +
                                 std::to_string(W.Pivots) + "p/" +
                                 std::to_string(W.Nodes) + "n probe " +
                                 (ProbeNodes ? "nodes" : "pivots");
        ChargeOutcome Serial = chargeUnder(Stacks[S], W, false, ProbeNodes);
        ChargeOutcome Bulk = chargeUnder(Stacks[S], W, true, ProbeNodes);
        ASSERT_EQ(Bulk.Ok, Serial.Ok) << What;
        if (Bulk.Ok) {
          ++Admitted;
          EXPECT_EQ(Bulk.Charged.Pivots, Serial.Charged.Pivots) << What;
          EXPECT_EQ(Bulk.Charged.Nodes, Serial.Charged.Nodes) << What;
          EXPECT_EQ(Bulk.Chargeable.Pivots, Serial.Chargeable.Pivots) << What;
          EXPECT_EQ(Bulk.Chargeable.Nodes, Serial.Chargeable.Nodes) << What;
          EXPECT_EQ(Bulk.Left, Serial.Left) << What;
        } else {
          // Refused: nothing charged, every cap still whole.
          ++Refused;
          EXPECT_EQ(Bulk.Charged.Pivots + Bulk.Charged.Nodes, 0u) << What;
          ChargeOutcome Fresh =
              chargeUnder(Stacks[S], SolverWork(), true, ProbeNodes);
          EXPECT_EQ(Bulk.Left, Fresh.Left) << What;
        }
      }
    }
  }
  EXPECT_GT(Admitted, 0u);
  EXPECT_GT(Refused, 0u);
}

// With no scope active, a bulk charge counts its nodes and leaves its
// pivots uncharged but chargeable, as a solve does.
TEST(BudgetBulkCharge, PivotsChargeOnlyUnderAnActiveScope) {
  ChargeOutcome Free = chargeUnder({}, SolverWork{7, 3}, true, false);
  EXPECT_TRUE(Free.Ok);
  EXPECT_EQ(Free.Charged.Pivots, 0u);
  EXPECT_EQ(Free.Charged.Nodes, 3u);
  EXPECT_EQ(Free.Chargeable.Pivots, 7u);
  EXPECT_EQ(Free.Chargeable.Nodes, 3u);
}

// A tripped scope or a wall-clock deadline refuses any block.
TEST(BudgetBulkCharge, RefusesTrippedScopesAndDeadlines) {
  {
    budget::BudgetScope Deadline(SolverBudget{0, 0, /*WallMs=*/60000});
    EXPECT_FALSE(budget::chargeWork(SolverWork{0, 1}));
  }
  budget::BudgetScope Outer(SolverBudget{/*MaxPivots=*/1, 0, 0});
  EXPECT_TRUE(budget::chargePivot());
  EXPECT_FALSE(budget::chargePivot());
  budget::BudgetScope Inner(SolverBudget{/*MaxPivots=*/100, 0, 0});
  EXPECT_FALSE(budget::chargeWork(SolverWork{0, 1}));
  EXPECT_FALSE(budget::chargeWork(SolverWork{}));
}
