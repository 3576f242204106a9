//===- tests/lp_perf_test.cpp - Differential tests for the fast LP core ---===//
//
// The rewritten solver stack (integer-row flat tableau, warm-started
// lexmin) must be indistinguishable from the retained reference solver
// (lp/Reference.h: a rational tableau, cold per-node solves) on every
// input: same status, same value, same point. These tests cross-check
// the two on seeded random LPs, bounded ILPs, and multi-level lexmin
// problems, and pin down the regressions the rewrite fixed
// (deep-branching stack blowout) and its observability (pivot
// histogram). They also pin the
// integer-row tableau to the reference pivot for pivot, and check its
// row normalization and overflow behaviour.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "lp/Budget.h"
#include "lp/Ilp.h"
#include "lp/LexMin.h"
#include "lp/Reference.h"
#include "lp/Simplex.h"
#include "lp/Tableau.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <random>

using namespace pinj;

namespace {

/// Deterministic random problem generator. Coefficients are small so
/// tableau rows stay well inside 64 bits; the tableau's overflow paths
/// are exercised separately below.
class ProblemGen {
public:
  explicit ProblemGen(unsigned Seed) : Rng(Seed) {}

  LpProblem lp(unsigned NumVars, unsigned NumRows) {
    LpProblem P(NumVars);
    std::uniform_int_distribution<int> Coeff(-4, 4);
    std::uniform_int_distribution<int> Konst(-12, 12);
    std::uniform_int_distribution<int> KindPick(0, 5);
    for (unsigned R = 0; R != NumRows; ++R) {
      IntVector Row(NumVars);
      for (Int &C : Row)
        C = Coeff(Rng);
      Int K = Konst(Rng);
      switch (KindPick(Rng)) {
      case 0:
        P.addLe(std::move(Row), K);
        break;
      case 1:
        P.addEq(std::move(Row), K);
        break;
      default:
        P.addGe(std::move(Row), K);
        break;
      }
    }
    P.Objective.resize(NumVars);
    for (Int &C : P.Objective)
      C = Coeff(Rng);
    return P;
  }

  /// A bounded mixed ILP: every variable gets an upper bound, so the
  /// search tree is finite even for adversarial rows.
  IlpProblem ilp(unsigned NumVars, unsigned NumRows) {
    IlpProblem P(NumVars);
    P.Lp = lp(NumVars, NumRows);
    std::uniform_int_distribution<int> Bound(1, 9);
    std::uniform_int_distribution<int> IntPick(0, 3);
    for (unsigned V = 0; V != NumVars; ++V) {
      P.Lp.addUpperBound(V, Bound(Rng));
      if (IntPick(Rng) != 0)
        P.markInteger(V);
    }
    return P;
  }

  std::vector<LexObjective> levels(unsigned NumVars, unsigned NumLevels) {
    std::uniform_int_distribution<int> Coeff(-3, 3);
    std::vector<LexObjective> Levels;
    for (unsigned L = 0; L != NumLevels; ++L) {
      IntVector Row(NumVars);
      for (Int &C : Row)
        C = Coeff(Rng);
      Levels.push_back(LexObjective{std::move(Row)});
    }
    return Levels;
  }

  /// A problem shaped like one dimension's Farkas blocks: \p NumCoeffs
  /// bounded integer coefficients, then \p NumMults rational multipliers;
  /// column identities that are homogeneous equalities or homogeneous >=
  /// rows (a substituted box multiplier), a constant-column >= row with a
  /// small constant, and "the coefficients sum to at least 1".
  IlpProblem farkasShaped(unsigned NumCoeffs, unsigned NumMults) {
    const unsigned NumVars = NumCoeffs + NumMults;
    IlpProblem P(NumVars);
    std::uniform_int_distribution<int> Coeff(-2, 2);
    std::uniform_int_distribution<int> Mult(-3, 3);
    std::uniform_int_distribution<int> Pick(0, 2);
    auto identity = [&] {
      IntVector Row(NumVars);
      for (unsigned V = 0; V != NumVars; ++V)
        Row[V] = Pick(Rng) == 0 ? (V < NumCoeffs ? Coeff(Rng) : Mult(Rng)) : 0;
      return Row;
    };
    for (unsigned R = 0, E = NumCoeffs + NumMults / 2; R != E; ++R) {
      if (Pick(Rng) == 0)
        P.Lp.addEq(identity(), 0);
      else
        P.Lp.addGe(identity(), 0);
    }
    P.Lp.addGe(identity(), std::uniform_int_distribution<int>(0, 3)(Rng));
    IntVector Progress(NumVars, 0);
    std::fill_n(Progress.begin(), NumCoeffs, 1);
    P.Lp.addGe(std::move(Progress), -1);
    for (unsigned V = 0; V != NumCoeffs; ++V) {
      P.Lp.addUpperBound(V, 4);
      P.markInteger(V);
    }
    P.Lp.Objective.resize(NumVars);
    for (Int &C : P.Lp.Objective)
      C = Coeff(Rng);
    return P;
  }

  /// Multiplies every row (coefficients and constant) by F * M, where
  /// F = 7 * 2^a * 3^b * 5^c lies between 2^20 and 2^23 (some problems
  /// get a pure power of two or a pure odd F) and M in +-{1, 2, 3} is
  /// drawn per row. The slacks of scaled rows are F times the structural
  /// scale, so rows mixing the two reach denominators past the tableau's
  /// normalization bound, with a gcd that has both a power-of-two and an
  /// odd part. A larger F makes some such rows exceed 64 bits even fully
  /// reduced, which raises Overflow where the reference still solves.
  void factorRows(LpProblem &P) {
    const Int Primes[] = {2, 3, 5};
    const int Kind = std::uniform_int_distribution<int>(0, 3)(Rng);
    // Kind 0: powers of two only; 1: odd primes only; else all three.
    std::uniform_int_distribution<int> Prime(Kind == 1 ? 1 : 0,
                                             Kind == 0 ? 0 : 2);
    Int F = Kind == 0 ? 1 : 7;
    while (F <= (Int(1) << 20))
      F *= Primes[Prime(Rng)];
    std::uniform_int_distribution<int> Mul(-3, 2);
    for (LpConstraint &C : P.Constraints) {
      int M = Mul(Rng);
      const Int Factor = checkedMul(F, M < 0 ? M : M + 1);
      for (Int &V : C.Coeffs)
        V = checkedMul(V, Factor);
      C.Constant = checkedMul(C.Constant, Factor);
      if (Factor < 0 && C.Kind != LpConstraint::EQ) // Same half-space.
        C.Kind = C.Kind == LpConstraint::GE ? LpConstraint::LE
                                            : LpConstraint::GE;
    }
  }

private:
  std::mt19937 Rng;
};

void expectSameLp(const LpResult &Ref, const LpResult &Fast,
                  unsigned Seed) {
  ASSERT_EQ(Ref.Status, Fast.Status) << "seed " << Seed;
  if (Ref.Status != LpResult::Optimal)
    return;
  EXPECT_EQ(Ref.Value, Fast.Value) << "seed " << Seed;
  ASSERT_EQ(Ref.Point.size(), Fast.Point.size()) << "seed " << Seed;
  for (unsigned V = 0, E = Ref.Point.size(); V != E; ++V)
    EXPECT_EQ(Ref.Point[V], Fast.Point[V]) << "seed " << Seed << " var " << V;
}

void expectSameIlp(const IlpResult &Ref, const IlpResult &Fast,
                   unsigned Seed) {
  ASSERT_EQ(Ref.Status, Fast.Status) << "seed " << Seed;
  if (Ref.Status != IlpResult::Optimal)
    return;
  EXPECT_EQ(Ref.Value, Fast.Value) << "seed " << Seed;
  ASSERT_EQ(Ref.Point.size(), Fast.Point.size()) << "seed " << Seed;
  for (unsigned V = 0, E = Ref.Point.size(); V != E; ++V)
    EXPECT_EQ(Ref.Point[V], Fast.Point[V]) << "seed " << Seed << " var " << V;
}

/// Runs \p Solve and \returns the simplex pivots it made on this thread.
template <class Fn> std::uint64_t pivotsOf(Fn &&Solve) {
  std::uint64_t Before = threadSimplexPivots();
  Solve();
  return threadSimplexPivots() - Before;
}

/// The pivots the production tableau makes on exactly the ILPs
/// referenceSolveLexMin solves: one cold solveIlp per level, each level
/// pinned at its optimum before the next. (solveLexMin itself runs the
/// intermediate levels warm, so its pivot count is not the reference's.)
std::uint64_t coldLevelPivots(IlpProblem P,
                              const std::vector<LexObjective> &Levels) {
  return pivotsOf([&] {
    for (const LexObjective &Level : Levels) {
      P.Lp.Objective = Level.Coeffs;
      IlpResult R = solveIlp(P);
      if (!R.isOptimal())
        return;
      IntVector Pinned(P.numVars());
      for (unsigned V = 0, E = P.numVars(); V != E; ++V)
        Pinned[V] = checkedMul(R.Value.denominator(), Level.Coeffs[V]);
      P.Lp.addEq(std::move(Pinned), checkedNeg(R.Value.numerator()));
    }
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: fast solver vs reference solver
//===----------------------------------------------------------------------===//

TEST(LpDifferential, RandomLpsMatchReference) {
  unsigned Statuses[4] = {};
  for (unsigned Seed = 0; Seed != 100; ++Seed) {
    ProblemGen Gen(Seed);
    LpProblem P = Gen.lp(2 + Seed % 6, 2 + (Seed * 7) % 8);
    unsigned RefPivots = 0;
    LpResult Ref = referenceSolveLp(P, &RefPivots);
    LpResult Fast;
    EXPECT_EQ(pivotsOf([&] { Fast = solveLp(P); }), RefPivots)
        << "seed " << Seed;
    expectSameLp(Ref, Fast, Seed);
    ++Statuses[Ref.Status];
  }
  // The generator must cover the interesting statuses, or the test
  // silently decays into an optimal-only check.
  EXPECT_GT(Statuses[LpResult::Optimal], 0u);
  EXPECT_GT(Statuses[LpResult::Infeasible], 0u);
  EXPECT_GT(Statuses[LpResult::Unbounded], 0u);
}

TEST(LpDifferential, RandomIlpsMatchReference) {
  unsigned Optimal = 0, Infeasible = 0;
  for (unsigned Seed = 1000; Seed != 1100; ++Seed) {
    ProblemGen Gen(Seed);
    IlpProblem P = Gen.ilp(2 + Seed % 5, 3 + (Seed * 5) % 6);
    unsigned RefPivots = 0;
    IlpResult Ref = referenceSolveIlp(P, &RefPivots);
    IlpResult Fast;
    EXPECT_EQ(pivotsOf([&] { Fast = solveIlp(P); }), RefPivots)
        << "seed " << Seed;
    expectSameIlp(Ref, Fast, Seed);
    Ref.Status == IlpResult::Optimal ? ++Optimal : ++Infeasible;
  }
  EXPECT_GT(Optimal, 0u);
  EXPECT_GT(Infeasible, 0u);
}

TEST(LpDifferential, RandomLexMinMatchesReference) {
  // Multi-level problems exercise the warm-started intermediate levels
  // plus the exact final level.
  unsigned Optimal = 0;
  for (unsigned Seed = 2000; Seed != 2040; ++Seed) {
    ProblemGen Gen(Seed);
    unsigned NumVars = 3 + Seed % 4;
    IlpProblem P = Gen.ilp(NumVars, 3 + (Seed * 3) % 5);
    std::vector<LexObjective> Levels = Gen.levels(NumVars, 2 + Seed % 2);
    unsigned RefPivots = 0;
    IlpResult Ref = referenceSolveLexMin(P, Levels, &RefPivots);
    IlpResult Fast = solveLexMin(P, Levels);
    expectSameIlp(Ref, Fast, Seed);
    EXPECT_EQ(coldLevelPivots(P, Levels), RefPivots) << "seed " << Seed;
    Optimal += Ref.Status == IlpResult::Optimal;
  }
  EXPECT_GT(Optimal, 5u);
}

TEST(LpDifferential, FactorRichRowsMatchReference) {
  // Rows carrying large common factors (ProblemGen::factorRows) push row
  // denominators past the normalization bound, so the solves below run
  // the exact-division normalization with shifts and odd divisors of
  // many sizes. Status, point, value and pivot count must still be the
  // reference's.
  unsigned LpOptimal = 0, IlpOptimal = 0, LexOptimal = 0;
  for (unsigned Seed = 3000; Seed != 3080; ++Seed) {
    ProblemGen Gen(Seed);
    LpProblem P = Gen.lp(2 + Seed % 6, 2 + (Seed * 7) % 8);
    Gen.factorRows(P);
    unsigned RefPivots = 0;
    LpResult Ref = referenceSolveLp(P, &RefPivots);
    LpResult Fast;
    EXPECT_EQ(pivotsOf([&] { Fast = solveLp(P); }), RefPivots)
        << "seed " << Seed;
    expectSameLp(Ref, Fast, Seed);
    LpOptimal += Ref.Status == LpResult::Optimal;
  }
  for (unsigned Seed = 3100; Seed != 3160; ++Seed) {
    ProblemGen Gen(Seed);
    IlpProblem P = Gen.ilp(2 + Seed % 5, 3 + (Seed * 5) % 6);
    Gen.factorRows(P.Lp);
    unsigned RefPivots = 0;
    IlpResult Ref = referenceSolveIlp(P, &RefPivots);
    IlpResult Fast;
    EXPECT_EQ(pivotsOf([&] { Fast = solveIlp(P); }), RefPivots)
        << "seed " << Seed;
    expectSameIlp(Ref, Fast, Seed);
    IlpOptimal += Ref.Status == IlpResult::Optimal;
  }
  for (unsigned Seed = 3200; Seed != 3230; ++Seed) {
    ProblemGen Gen(Seed);
    unsigned NumVars = 3 + Seed % 4;
    IlpProblem P = Gen.ilp(NumVars, 3 + (Seed * 3) % 5);
    Gen.factorRows(P.Lp);
    std::vector<LexObjective> Levels = Gen.levels(NumVars, 2 + Seed % 2);
    unsigned RefPivots = 0;
    IlpResult Ref = referenceSolveLexMin(P, Levels, &RefPivots);
    expectSameIlp(Ref, solveLexMin(P, Levels), Seed);
    EXPECT_EQ(coldLevelPivots(P, Levels), RefPivots) << "seed " << Seed;
    LexOptimal += Ref.Status == IlpResult::Optimal;
  }
  EXPECT_GT(LpOptimal, 10u);
  EXPECT_GT(IlpOptimal, 10u);
  EXPECT_GT(LexOptimal, 5u);
}

TEST(LpDifferential, SchedulerLexMinMatchesReferencePivots) {
  // bench_lp's scheduler-derived cases: same result as the reference,
  // and the same pivot count level by level.
  for (const LexCase &C : schedulerLexCases()) {
    unsigned RefPivots = 0;
    IlpResult Ref = referenceSolveLexMin(C.Problem, C.Levels, &RefPivots);
    expectSameIlp(Ref, solveLexMin(C.Problem, C.Levels), 0);
    EXPECT_EQ(coldLevelPivots(C.Problem, C.Levels), RefPivots) << C.Name;
    EXPECT_GT(RefPivots, 0u) << C.Name;
  }
}

TEST(LpDifferential, HomogeneousRowsMatchReference) {
  // Farkas-shaped problems: most rows have a zero right-hand side, so
  // their >= rows start with a basic slack and only the equalities and
  // the few rows with a constant need phase 1.
  unsigned Statuses[4] = {}, LexOptimal = 0;
  for (unsigned Seed = 4000; Seed != 4120; ++Seed) {
    ProblemGen Gen(Seed);
    IlpProblem P = Gen.farkasShaped(2 + Seed % 5, 3 + Seed % 9);
    unsigned RefPivots = 0;
    LpResult Ref = referenceSolveLp(P.Lp, &RefPivots);
    LpResult Fast;
    EXPECT_EQ(pivotsOf([&] { Fast = solveLp(P.Lp); }), RefPivots)
        << "seed " << Seed;
    expectSameLp(Ref, Fast, Seed);
    ++Statuses[Ref.Status];

    std::vector<LexObjective> Levels = Gen.levels(P.numVars(), 2);
    for (LexObjective &L : Levels)
      for (Int &C : L.Coeffs)
        C = C < 0 ? checkedNeg(C) : C; // Bounded below: x >= 0.
    RefPivots = 0;
    IlpResult RefLex = referenceSolveLexMin(P, Levels, &RefPivots);
    expectSameIlp(RefLex, solveLexMin(P, Levels), Seed);
    EXPECT_EQ(coldLevelPivots(P, Levels), RefPivots) << "seed " << Seed;
    LexOptimal += RefLex.Status == IlpResult::Optimal;
  }
  EXPECT_GT(Statuses[LpResult::Optimal], 10u);
  EXPECT_GT(Statuses[LpResult::Infeasible], 0u);
  EXPECT_GT(Statuses[LpResult::Unbounded], 0u);
  EXPECT_GT(LexOptimal, 10u);

  // Only homogeneous >= rows and a nonnegative objective: the slack
  // basis is already optimal, so neither solver pivots.
  LpProblem Homogeneous(4);
  Homogeneous.addGe({1, -2, 0, 3}, 0);
  Homogeneous.addGe({-1, 0, 1, 1}, 0);
  Homogeneous.addGe({0, 1, -1, 0}, 0);
  Homogeneous.Objective = {1, 0, 2, 1};
  unsigned RefPivots = 0;
  LpResult Ref = referenceSolveLp(Homogeneous, &RefPivots);
  EXPECT_EQ(RefPivots, 0u);
  EXPECT_EQ(pivotsOf([&] { solveLp(Homogeneous); }), 0u);
  ASSERT_TRUE(Ref.isOptimal());
  EXPECT_EQ(Ref.Value, Rational(0));
}

TEST(LpDifferential, BranchingWarmLevelMatchesReference) {
  // The first (warm) level's root is fractional (x0 + x1 = 3/2), so its
  // search branches and both root children start from copies of the
  // persistent root tableau; the final level's root is integral.
  IlpProblem P(2);
  P.Lp.addGe({2, 2}, -3);
  P.Lp.addUpperBound(0, 4);
  P.Lp.addUpperBound(1, 4);
  P.markInteger(0);
  P.markInteger(1);
  const std::vector<LexObjective> Levels{LexObjective({1, 1}),
                                         LexObjective({1, 0})};
  IlpResult Ref = referenceSolveLexMin(P, Levels);
  IlpResult Fast = solveLexMin(P, Levels);
  expectSameIlp(Ref, Fast, 0);
  ASSERT_TRUE(Fast.isOptimal());
  EXPECT_EQ(Fast.Value, Rational(0));
  EXPECT_GE(Fast.MaxDepth, 1u);
  EXPECT_GT(Fast.NodesExplored, 3u);
}

//===----------------------------------------------------------------------===//
// Worklist branch and bound: deep branching regression
//===----------------------------------------------------------------------===//

namespace {

/// A problem with a deliberately deep and wide integer-infeasible
/// search tree: 2 * sum(x) == 2N+1 keeps every LP relaxation feasible
/// (sum(x) = N + 1/2 fits the bounds) but is integer-infeasible with an
/// even left side, and the symmetry forces branch and bound to split
/// intervals over and over along long paths (N=8 already takes ~36k
/// nodes to refute). The old recursive solver put a whole copied
/// LpProblem on the stack per node on paths like these; the worklist
/// rewrite must either prove infeasibility or stop cleanly on a node
/// budget.
IlpProblem deepBranchingProblem(unsigned NumVars) {
  IlpProblem P(NumVars);
  IntVector Row(NumVars, 2);
  P.Lp.addEq(std::move(Row),
             checkedNeg(2 * static_cast<Int>(NumVars) + 1));
  for (unsigned V = 0; V != NumVars; ++V) {
    P.Lp.addUpperBound(V, 8);
    P.markInteger(V);
  }
  return P;
}

} // namespace

TEST(IlpWorklist, DeepBranchingUnderNodeBudgetStopsCleanly) {
  // N=12 needs well over 200k nodes to refute; the tight budget must
  // surface as a clean BudgetExceeded, never a crash or a bogus proof.
  IlpProblem P = deepBranchingProblem(12);
  P.Lp.Objective.assign(P.numVars(), 0);
  P.Lp.Objective[0] = 1;
  SolverBudget B;
  B.MaxIlpNodes = 2000;
  budget::BudgetScope Scope(B);
  IlpResult R = solveIlp(P);
  EXPECT_EQ(R.Status, IlpResult::BudgetExceeded);
  EXPECT_LE(R.NodesExplored, 2000u);
}

TEST(IlpWorklist, SmallDeepChainSolvedExactly) {
  // The 3-variable instance (2(x0+x1+x2) == 7) is refutable quickly;
  // both solvers must agree on the proof.
  IlpProblem P = deepBranchingProblem(3);
  P.Lp.Objective.assign(P.numVars(), 0);
  P.Lp.Objective[0] = 1;
  IlpResult Ref = referenceSolveIlp(P);
  IlpResult Fast = solveIlp(P);
  expectSameIlp(Ref, Fast, 0);
  EXPECT_EQ(Fast.Status, IlpResult::Infeasible);
}

//===----------------------------------------------------------------------===//
// Integer-row tableau: normalization and overflow
//===----------------------------------------------------------------------===//

TEST(IntegerTableau, NormalizedRowsFitWhereRawRowsOverflow) {
  // Rows scaled by 2^40 next to unit rows: the raw pivot updates
  // overflow 64 bits, the gcd-normalized rows fit. Status, value, point
  // and pivot count must match the reference bit for bit.
  const Int K = Int(1) << 40;
  LpProblem P(4);
  P.addGe({2, 0, 3, -1}, 0);
  P.addLe({K, -2 * K, -K, 0}, 2 * K);
  P.addGe({-K, 2 * K, -3 * K, -3 * K}, K);
  P.addLe({-3 * K, 0, -2 * K, -2 * K}, K);
  for (unsigned V = 0; V != 4; ++V)
    P.addUpperBound(V, 5);
  P.Objective = {0, -3, -2, -3};
  unsigned RefPivots = 0;
  LpResult Ref = referenceSolveLp(P, &RefPivots);
  ASSERT_EQ(Ref.Status, LpResult::Optimal);
  LpResult Fast;
  EXPECT_EQ(pivotsOf([&] { Fast = solveLp(P); }), RefPivots);
  expectSameLp(Ref, Fast, 0);
}

TEST(IntegerTableau, RowsBeyond63BitsRaiseOverflow) {
  // The optimal vertex of these two rows has a denominator near 2^77:
  // no row scaling fits it in 64 bits, so the tableau must raise a
  // recoverable Overflow instead of wrapping. The 128-bit reference
  // still solves it.
  const Int K = Int(1) << 40;
  LpProblem P(2);
  P.addGe({K + 1, 3}, -K);
  P.addGe({5, K + 7}, -K);
  P.Objective = {1, 1};
  ASSERT_EQ(referenceSolveLp(P).Status, LpResult::Optimal);
  try {
    solveLp(P);
    FAIL() << "expected an overflow";
  } catch (const RecoverableError &E) {
    EXPECT_EQ(E.status().code(), StatusCode::Overflow);
    EXPECT_EQ(E.status().site(), "lp.tableau");
  }
}

TEST(IntegerTableau, TightenedRhsPast64BitsIsReducedNotWrapped) {
  // 2x + 2y == 2^62 leaves the basic row y + x == 2^61 over denominator
  // 2. After the branch bound y <= 0, tightening it to y <= -2^61 shifts
  // x's right-hand-side numerator to 2^63: the row must be reduced by its
  // gcd 2 instead of wrapping, and the dual simplex must then prove the
  // bounded problem empty.
  LpProblem P(2);
  P.addEq({2, 2}, -(Int(1) << 62));
  SimplexTableau T;
  T.build(P, {}, 1, 1);
  ASSERT_EQ(T.solveTwoPhase({0, -1}), SimplexTableau::Outcome::Optimal);
  unsigned Slack = T.addBoundRow(1, /*Upper=*/true, 0);
  ASSERT_EQ(T.dualReoptimize(), SimplexTableau::Outcome::Optimal);
  T.tightenBoundRow(Slack, -(Int(1) << 61));
  EXPECT_EQ(T.dualReoptimize(), SimplexTableau::Outcome::Infeasible);
}

TEST(IntegerTableau, PinPivotsCountButAreNotSolves) {
  // A warm level's pin pivots (at least the artificial driven out of
  // the basis) go into lp.simplex_pivots and the thread tally, but not
  // into lp.simplex_solves or the per-solve histogram.
  IlpProblem P(2);
  P.Lp.addGe({1, 1}, -2);
  P.Lp.addUpperBound(0, 3);
  P.Lp.addUpperBound(1, 3);
  P.markInteger(0);
  P.markInteger(1);
  const std::vector<LexObjective> Levels{LexObjective({1, 1}),
                                         LexObjective({0, 1})};
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::uint64_t Tally = pivotsOf([&] { solveLexMin(P, Levels); });
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  const obs::HistogramSummary *PerSolve =
      Delta.histogram("lp.pivots_per_solve");
  ASSERT_NE(PerSolve, nullptr);
  EXPECT_EQ(PerSolve->Count, Delta.counter("lp.simplex_solves"));
  EXPECT_EQ(Delta.counter("lp.simplex_pivots"), Tally);
  EXPECT_GT(Tally, static_cast<std::uint64_t>(PerSolve->Sum));
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

TEST(LpObservability, PivotHistogramRecordsSolves) {
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  LpProblem Lp(2);
  Lp.addGe({1, 1}, -3);
  Lp.addUpperBound(0, 2);
  Lp.Objective = {1, 1};
  ASSERT_TRUE(solveLp(Lp).isOptimal());
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  const obs::HistogramSummary *H = Delta.histogram("lp.pivots_per_solve");
  ASSERT_NE(H, nullptr);
  EXPECT_GE(H->Count, 1u);
}

// One recording rule: every finished search, warm lexmin level or cold
// solveIlp, records one lp.bnb_max_depth sample. That includes a warm
// level whose root relaxation is infeasible.
TEST(LpObservability, EveryFinishedSearchRecordsItsDepth) {
  IlpProblem Infeasible(2);
  Infeasible.Lp.addGe({1, 0}, -3); // x0 >= 3
  Infeasible.Lp.addUpperBound(0, 1);
  IlpProblem Feasible(2);
  Feasible.Lp.addGe({2, 2}, -3); // 2 x0 + 2 x1 >= 3: a fractional root.
  Feasible.Lp.addUpperBound(0, 4);
  Feasible.Lp.addUpperBound(1, 4);
  for (IlpProblem *P : {&Infeasible, &Feasible}) {
    P->markInteger(0);
    P->markInteger(1);
  }
  const std::vector<LexObjective> Levels{LexObjective({1, 1}),
                                         LexObjective({1, 0})};

  for (const IlpProblem *P : {&Infeasible, &Feasible}) {
    obs::MetricsSnapshot Before = obs::metrics().snapshot();
    IlpResult R = solveLexMin(*P, Levels);
    EXPECT_EQ(R.isOptimal(), P == &Feasible);
    obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
    const obs::HistogramSummary *Depth = Delta.histogram("lp.bnb_max_depth");
    EXPECT_EQ(Depth ? Depth->Count : 0u, Delta.counter("lp.ilp_solves"))
        << (P == &Feasible ? "feasible" : "infeasible");
  }
}
