//===- lp/Reference.cpp ---------------------------------------------------===//
//
// The pre-optimization solver stack, kept as a differential oracle. Do
// not "improve" this file: its value is being the unoptimized original.
//
//===----------------------------------------------------------------------===//

#include "lp/Reference.h"

#include "support/Status.h"

#include <optional>

using namespace pinj;

namespace {

enum class MinimizeOutcome { Optimal, Unbounded };

/// A classic dense simplex tableau over exact rationals (the original
/// per-row vector-of-vectors layout). Every pivot is added to the
/// caller's \p Pivots tally, so tests can compare pivot counts.
class RefTableau {
public:
  RefTableau(unsigned NumRows, unsigned NumCols, unsigned &Pivots)
      : Rows(NumRows), Cols(NumCols),
        Cells(NumRows, std::vector<Rational>(NumCols + 1, Rational(0))),
        ObjRow(NumCols + 1, Rational(0)), Basis(NumRows, 0),
        Pivots(Pivots) {}

  Rational &at(unsigned R, unsigned C) { return Cells[R][C]; }
  Rational &rhs(unsigned R) { return Cells[R][Cols]; }
  Rational &obj(unsigned C) { return ObjRow[C]; }
  Rational &objValue() { return ObjRow[Cols]; }
  unsigned basicVar(unsigned R) const { return Basis[R]; }
  void setBasicVar(unsigned R, unsigned Var) { Basis[R] = Var; }

  void priceOutBasis() {
    for (unsigned R = 0; R != Rows; ++R) {
      unsigned BV = Basis[R];
      if (ObjRow[BV].isZero())
        continue;
      Rational Factor = ObjRow[BV];
      for (unsigned C = 0; C <= Cols; ++C)
        ObjRow[C] -= Factor * Cells[R][C];
    }
  }

  MinimizeOutcome minimize() {
    unsigned DegenerateStreak = 0;
    const unsigned BlandThreshold = 2 * (Rows + Cols) + 16;
    for (;;) {
      bool UseBland = DegenerateStreak > BlandThreshold;
      unsigned Entering = Cols;
      for (unsigned C = 0; C != Cols; ++C) {
        if (!ObjRow[C].isNegative())
          continue;
        if (UseBland) {
          Entering = C; // Lowest index.
          break;
        }
        if (Entering == Cols || ObjRow[C] < ObjRow[Entering])
          Entering = C; // Most negative reduced cost.
      }
      if (Entering == Cols)
        return MinimizeOutcome::Optimal;

      // Ratio test; Bland tie-break on the basic variable index.
      unsigned Leaving = Rows;
      Rational BestRatio;
      for (unsigned R = 0; R != Rows; ++R) {
        if (!Cells[R][Entering].isPositive())
          continue;
        Rational Ratio = Cells[R][Cols] / Cells[R][Entering];
        if (Leaving == Rows || Ratio < BestRatio ||
            (Ratio == BestRatio && Basis[R] < Basis[Leaving])) {
          Leaving = R;
          BestRatio = Ratio;
        }
      }
      if (Leaving == Rows)
        return MinimizeOutcome::Unbounded;
      if (BestRatio.isZero())
        ++DegenerateStreak; // No objective progress: possible cycling.
      else
        DegenerateStreak = 0;
      pivot(Leaving, Entering);
    }
  }

  void pivot(unsigned PivotRow, unsigned PivotCol) {
    ++Pivots;
    Rational Pivot = Cells[PivotRow][PivotCol];
    assert(!Pivot.isZero() && "pivot on zero entry");
    for (unsigned C = 0; C <= Cols; ++C)
      Cells[PivotRow][C] /= Pivot;
    for (unsigned R = 0; R != Rows; ++R) {
      if (R == PivotRow || Cells[R][PivotCol].isZero())
        continue;
      Rational Factor = Cells[R][PivotCol];
      for (unsigned C = 0; C <= Cols; ++C)
        Cells[R][C] -= Factor * Cells[PivotRow][C];
    }
    if (!ObjRow[PivotCol].isZero()) {
      Rational Factor = ObjRow[PivotCol];
      for (unsigned C = 0; C <= Cols; ++C)
        ObjRow[C] -= Factor * Cells[PivotRow][C];
    }
    Basis[PivotRow] = PivotCol;
  }

private:
  unsigned Rows;
  unsigned Cols;
  std::vector<std::vector<Rational>> Cells;
  std::vector<Rational> ObjRow;
  std::vector<unsigned> Basis;
  unsigned &Pivots;
};

LpResult refSolveLpImpl(const LpProblem &Problem, unsigned &Pivots) {
  unsigned NumStructural = Problem.NumVars;
  unsigned NumRows = Problem.Constraints.size();

  unsigned NumSlacks = 0;
  for (const LpConstraint &C : Problem.Constraints)
    if (C.Kind != LpConstraint::EQ)
      ++NumSlacks;

  std::vector<Int> RowSign(NumRows, 1);
  std::vector<bool> NeedsArtificial(NumRows, true);
  unsigned NumArtificials = 0;
  for (unsigned R = 0; R != NumRows; ++R) {
    const LpConstraint &C = Problem.Constraints[R];
    Int Rhs = checkedNeg(C.Constant);
    // lp/Tableau's initial basis: a zero-rhs >= row starts slack-basic.
    // Both builders must agree for their pivot counts to match.
    if (Rhs < 0 || (Rhs == 0 && C.Kind == LpConstraint::GE))
      RowSign[R] = -1;
    if (C.Kind != LpConstraint::EQ) {
      Int SlackSign =
          checkedMul(RowSign[R], C.Kind == LpConstraint::GE ? -1 : 1);
      NeedsArtificial[R] = SlackSign != 1;
    }
    if (NeedsArtificial[R])
      ++NumArtificials;
  }

  // Columns: structural | slacks | artificials (only where needed).
  unsigned SlackBase = NumStructural;
  unsigned ArtBase = NumStructural + NumSlacks;
  unsigned NumCols = ArtBase + NumArtificials;

  RefTableau T(NumRows, NumCols, Pivots);

  unsigned SlackIdx = 0, ArtIdx = 0;
  for (unsigned R = 0; R != NumRows; ++R) {
    const LpConstraint &C = Problem.Constraints[R];
    assert(C.Coeffs.size() == NumStructural && "constraint width mismatch");
    Int Sign = RowSign[R];
    Int Rhs = checkedMul(Sign, checkedNeg(C.Constant));
    for (unsigned V = 0; V != NumStructural; ++V)
      T.at(R, V) = Rational(checkedMul(Sign, C.Coeffs[V]));
    T.rhs(R) = Rational(Rhs);
    if (C.Kind != LpConstraint::EQ) {
      Int SlackSign = (C.Kind == LpConstraint::GE) ? -1 : 1;
      T.at(R, SlackBase + SlackIdx) = Rational(checkedMul(Sign, SlackSign));
      if (!NeedsArtificial[R])
        T.setBasicVar(R, SlackBase + SlackIdx);
      ++SlackIdx;
    }
    if (NeedsArtificial[R]) {
      T.at(R, ArtBase + ArtIdx) = Rational(1);
      T.setBasicVar(R, ArtBase + ArtIdx);
      ++ArtIdx;
    }
  }

  // Phase 1: minimize the sum of artificials (skipped when none).
  if (NumArtificials != 0) {
    for (unsigned A = 0; A != NumArtificials; ++A)
      T.obj(ArtBase + A) = Rational(1);
    T.priceOutBasis();
    MinimizeOutcome Phase1 = T.minimize();
    (void)Phase1; // Bounded below by construction.
    assert(Phase1 == MinimizeOutcome::Optimal && "phase 1 unbounded");
    if (!T.objValue().isZero()) {
      LpResult Result;
      Result.Status = LpResult::Infeasible;
      return Result;
    }
  }

  // Drive any artificial variables out of the basis (degenerate rows).
  for (unsigned R = 0; R != NumRows; ++R) {
    if (T.basicVar(R) < ArtBase)
      continue;
    unsigned Entering = ArtBase;
    for (unsigned C = 0; C != ArtBase; ++C) {
      if (!T.at(R, C).isZero()) {
        Entering = C;
        break;
      }
    }
    if (Entering != ArtBase)
      T.pivot(R, Entering);
  }

  // Phase 2: zero artificial columns so they can never re-enter.
  for (unsigned R = 0; R != NumRows; ++R)
    for (unsigned A = 0; A != NumArtificials; ++A)
      if (T.basicVar(R) != ArtBase + A)
        T.at(R, ArtBase + A) = Rational(0);

  for (unsigned C = 0; C != NumCols; ++C)
    T.obj(C) = Rational(0);
  T.objValue() = Rational(0);
  if (!Problem.Objective.empty()) {
    assert(Problem.Objective.size() == NumStructural &&
           "objective width mismatch");
    for (unsigned V = 0; V != NumStructural; ++V)
      T.obj(V) = Rational(Problem.Objective[V]);
  }
  for (unsigned A = 0; A != NumArtificials; ++A)
    T.obj(ArtBase + A) = Rational(1);
  T.priceOutBasis();

  MinimizeOutcome Phase2 = T.minimize();
  if (Phase2 != MinimizeOutcome::Optimal) {
    LpResult Result;
    Result.Status = LpResult::Unbounded;
    return Result;
  }

  LpResult Result;
  Result.Status = LpResult::Optimal;
  Result.Point.assign(NumStructural, Rational(0));
  for (unsigned R = 0; R != NumRows; ++R)
    if (T.basicVar(R) < NumStructural)
      Result.Point[T.basicVar(R)] = T.rhs(R);
  Result.Value = Rational(Problem.ObjectiveConstant);
  for (unsigned V = 0; V != NumStructural; ++V)
    if (!Problem.Objective.empty() && Problem.Objective[V] != 0)
      Result.Value += Rational(Problem.Objective[V]) * Result.Point[V];
  return Result;
}

/// The original recursive depth-first branch and bound, copying the
/// whole problem and appending a dense bound row at every branch.
class RefBranchAndBound {
public:
  RefBranchAndBound(const IlpProblem &Problem, unsigned &Pivots)
      : Problem(Problem), Pivots(Pivots) {}

  IlpResult run() {
    solveNode(Problem.Lp);
    IlpResult Result;
    Result.NodesExplored = Nodes;
    if (!Incumbent) {
      Result.Status = IlpResult::Infeasible;
      return Result;
    }
    Result.Status = IlpResult::Optimal;
    Result.Value = IncumbentValue;
    Result.Point = *Incumbent;
    return Result;
  }

private:
  unsigned findFractional(const std::vector<Rational> &Point) const {
    for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
      if (Problem.IsInteger[V] && !Point[V].isInteger())
        return V;
    return Problem.numVars();
  }

  void solveNode(const LpProblem &Node) {
    ++Nodes;
    LpResult Relaxed = refSolveLpImpl(Node, Pivots);
    if (Relaxed.Status == LpResult::Infeasible)
      return;
    if (Relaxed.Status == LpResult::Unbounded)
      raiseError(StatusCode::SolverError, "lp.reference",
                 "unbounded ILP relaxation");
    if (Incumbent && Relaxed.Value >= IncumbentValue)
      return; // Bound: cannot improve on the incumbent.

    unsigned Fractional = findFractional(Relaxed.Point);
    if (Fractional == Problem.numVars()) {
      if (!Incumbent || Relaxed.Value < IncumbentValue) {
        Incumbent = Relaxed.Point;
        IncumbentValue = Relaxed.Value;
      }
      return;
    }

    Int Floor = Relaxed.Point[Fractional].floor();

    // Branch down: x <= floor.
    {
      LpProblem Down = Node;
      IntVector Coeffs(Problem.numVars(), 0);
      Coeffs[Fractional] = 1;
      Down.addLe(std::move(Coeffs), checkedNeg(Floor));
      solveNode(Down);
    }
    // Branch up: x >= floor + 1.
    {
      LpProblem Up = Node;
      IntVector Coeffs(Problem.numVars(), 0);
      Coeffs[Fractional] = 1;
      Up.addGe(std::move(Coeffs), checkedNeg(checkedAdd(Floor, 1)));
      solveNode(Up);
    }
  }

  const IlpProblem &Problem;
  std::optional<std::vector<Rational>> Incumbent;
  Rational IncumbentValue;
  unsigned Nodes = 0;
  unsigned &Pivots;
};

IlpResult refSolveIlpImpl(const IlpProblem &Problem, unsigned &Pivots) {
  assert(Problem.IsInteger.size() == Problem.numVars() &&
         "integrality flags out of sync");
  RefBranchAndBound Solver(Problem, Pivots);
  return Solver.run();
}

IlpResult refSolveLexMinImpl(IlpProblem Problem,
                             const std::vector<LexObjective> &Objectives,
                             unsigned &Pivots) {
  IlpResult Last;
  if (Objectives.empty()) {
    Problem.Lp.Objective.assign(Problem.numVars(), 0);
    return refSolveIlpImpl(Problem, Pivots);
  }

  unsigned TotalNodes = 0;
  for (const LexObjective &Level : Objectives) {
    assert(Level.Coeffs.size() == Problem.numVars() &&
           "objective width mismatch");
    Problem.Lp.Objective = Level.Coeffs;
    Last = refSolveIlpImpl(Problem, Pivots);
    TotalNodes += Last.NodesExplored;
    if (!Last.isOptimal()) {
      Last.NodesExplored = TotalNodes;
      return Last;
    }
    // Pin this level at its optimum: q * (c . x) == p for Value == p/q.
    Int P = Last.Value.numerator();
    Int Q = Last.Value.denominator();
    IntVector Pinned(Problem.numVars(), 0);
    for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
      Pinned[V] = checkedMul(Q, Level.Coeffs[V]);
    Problem.Lp.addEq(std::move(Pinned), checkedNeg(P));
  }
  Last.NodesExplored = TotalNodes;
  return Last;
}

} // namespace

LpResult pinj::referenceSolveLp(const LpProblem &Problem, unsigned *Pivots) {
  unsigned Tally = 0;
  LpResult Result = refSolveLpImpl(Problem, Tally);
  if (Pivots)
    *Pivots = Tally;
  return Result;
}

IlpResult pinj::referenceSolveIlp(const IlpProblem &Problem,
                                  unsigned *Pivots) {
  unsigned Tally = 0;
  IlpResult Result = refSolveIlpImpl(Problem, Tally);
  if (Pivots)
    *Pivots = Tally;
  return Result;
}

IlpResult
pinj::referenceSolveLexMin(IlpProblem Problem,
                           const std::vector<LexObjective> &Objectives,
                           unsigned *Pivots) {
  unsigned Tally = 0;
  IlpResult Result =
      refSolveLexMinImpl(std::move(Problem), Objectives, Tally);
  if (Pivots)
    *Pivots = Tally;
  return Result;
}
