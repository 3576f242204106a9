//===- lp/Simplex.h - Exact rational simplex --------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact two-phase primal simplex over rationals with Bland's rule.
/// All variables are nonnegative; the scheduler arranges its unknowns so
/// that this holds (paper Eq. (3): nonnegative scheduling coefficients).
/// This solver plays the role isl's ILP core plays in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_SIMPLEX_H
#define POLYINJECT_LP_SIMPLEX_H

#include "math/Matrix.h"
#include "math/Rational.h"

#include <cstdint>
#include <vector>

namespace pinj {

/// One affine constraint over the problem variables:
/// Coeffs . x + Constant  (Kind)  0.
struct LpConstraint {
  enum KindTy { GE, LE, EQ };

  IntVector Coeffs;
  Int Constant = 0;
  KindTy Kind = GE;

  LpConstraint() = default;
  LpConstraint(IntVector C, Int K, KindTy Ki)
      : Coeffs(std::move(C)), Constant(K), Kind(Ki) {}
};

/// A linear program: minimize Objective . x + ObjectiveConstant subject to
/// the constraints and x >= 0.
struct LpProblem {
  unsigned NumVars = 0;
  std::vector<LpConstraint> Constraints;
  IntVector Objective;         ///< Minimized; empty means feasibility only.
  Int ObjectiveConstant = 0;

  explicit LpProblem(unsigned NumVars = 0) : NumVars(NumVars) {}

  /// Adds Coeffs . x + Constant >= 0.
  void addGe(IntVector Coeffs, Int Constant) {
    Constraints.emplace_back(std::move(Coeffs), Constant, LpConstraint::GE);
  }
  /// Adds Coeffs . x + Constant <= 0.
  void addLe(IntVector Coeffs, Int Constant) {
    Constraints.emplace_back(std::move(Coeffs), Constant, LpConstraint::LE);
  }
  /// Adds Coeffs . x + Constant == 0.
  void addEq(IntVector Coeffs, Int Constant) {
    Constraints.emplace_back(std::move(Coeffs), Constant, LpConstraint::EQ);
  }
  /// Adds x[Var] <= Bound.
  void addUpperBound(unsigned Var, Int Bound);
};

/// Result of an LP solve. BudgetExceeded means an enclosing SolverBudget
/// (see lp/Budget.h) ran out of pivots or wall clock before the solve
/// finished; callers treat it like Infeasible but must not cache it as a
/// proof of infeasibility.
struct LpResult {
  enum StatusTy { Optimal, Infeasible, Unbounded, BudgetExceeded };

  StatusTy Status = Infeasible;
  Rational Value;                 ///< Optimal objective value.
  std::vector<Rational> Point;    ///< Optimal assignment (NumVars entries).

  bool isOptimal() const { return Status == Optimal; }
};

/// Solves \p Problem with an exact two-phase simplex.
LpResult solveLp(const LpProblem &Problem);

/// Solves \p Problem with \p ExtraRows appended to its constraints —
/// exactly equivalent to copying the problem and appending the rows,
/// but without the copy. Branch and bound threads its path of branching
/// rows through here.
LpResult solveLpExt(const LpProblem &Problem,
                    const std::vector<LpConstraint> &ExtraRows);

/// Simplex pivots performed by THIS thread since it started. The global
/// `lp.simplex_pivots` counter mixes all batch workers together; the
/// lexmin driver diffs this tally around a dimension's solve to
/// attribute pivots exactly per dimension. countPivots
/// (lp/BranchAndBound.h) adds to it, for every simplex solve and every
/// lexmin pin.
std::uint64_t threadSimplexPivots();

} // namespace pinj

#endif // POLYINJECT_LP_SIMPLEX_H
