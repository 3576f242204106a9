//===- lp/Simplex.cpp -----------------------------------------------------===//

#include "lp/Simplex.h"

#include "lp/BranchAndBound.h"

using namespace pinj;

namespace {
thread_local std::uint64_t TlPivots = 0;
} // namespace

std::uint64_t pinj::threadSimplexPivots() { return TlPivots; }
void pinj::addThreadSimplexPivots(std::uint64_t N) { TlPivots += N; }

void LpProblem::addUpperBound(unsigned Var, Int Bound) {
  assert(Var < NumVars && "bounded variable out of range");
  IntVector Coeffs(NumVars, 0);
  Coeffs[Var] = 1;
  addLe(std::move(Coeffs), checkedNeg(Bound));
}

LpResult pinj::solveLpExt(const LpProblem &Problem,
                          const std::vector<LpConstraint> &ExtraRows) {
  // One scratch tableau per thread: the branch-and-bound hot path
  // re-solves hundreds of closely related problems, and reusing the
  // flat buffer makes each build allocation-free in the steady state.
  static thread_local SimplexTableau T;
  T.build(Problem, ExtraRows);
  SimplexTableau::Outcome Outcome =
      countedSolve(T, [&] { return T.solveTwoPhase(Problem.Objective); });

  LpResult Result;
  switch (Outcome) {
  case SimplexTableau::Outcome::Budget:
    Result.Status = LpResult::BudgetExceeded;
    return Result;
  case SimplexTableau::Outcome::Infeasible:
    Result.Status = LpResult::Infeasible;
    return Result;
  case SimplexTableau::Outcome::Unbounded:
    Result.Status = LpResult::Unbounded;
    return Result;
  case SimplexTableau::Outcome::Optimal:
    break;
  }

  Result.Status = LpResult::Optimal;
  T.extractPoint(Result.Point);
  Result.Value = objectiveValue(Problem, Result.Point);
  return Result;
}

Rational pinj::objectiveValue(const LpProblem &Problem,
                              const std::vector<Rational> &Point) {
  // The tableau tracks -(objective shift); recompute the value directly.
  Rational Value(Problem.ObjectiveConstant);
  for (unsigned V = 0, E = Problem.NumVars; V != E; ++V)
    if (!Problem.Objective.empty() && Problem.Objective[V] != 0)
      Value += Rational(Problem.Objective[V]) * Point[V];
  return Value;
}

LpResult pinj::solveLp(const LpProblem &Problem) {
  return solveLpExt(Problem, {});
}
