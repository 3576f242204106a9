//===- lp/Budget.h - Solver resource budgets -------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the exact LP/ILP solvers. A SolverBudget caps the
/// number of simplex pivots, branch-and-bound nodes, and wall-clock time a
/// region of work may consume. Budgets are installed with a RAII
/// BudgetScope; scopes nest (an operator-wide deadline around per-kernel
/// pivot caps), and every charge is applied to all scopes on the current
/// thread's stack. When any scope is exhausted the solvers return
/// BudgetExceeded, which the scheduler treats like an infeasible ILP and
/// resolves through its normal fallback chain.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_BUDGET_H
#define POLYINJECT_LP_BUDGET_H

#include <chrono>
#include <cstdint>

namespace pinj {

/// Solver work as budgets count it: simplex pivots and branch-and-bound
/// nodes.
struct SolverWork {
  std::uint64_t Pivots = 0;
  std::uint64_t Nodes = 0;
};

/// Limits for a region of solver work. A zero field means "unlimited".
struct SolverBudget {
  /// Maximum simplex pivots (phase 1 + phase 2, all relaxations).
  std::uint64_t MaxPivots = 0;
  /// Maximum branch-and-bound nodes across all ILP solves.
  std::uint64_t MaxIlpNodes = 0;
  /// Wall-clock deadline in milliseconds.
  double WallMs = 0;

  bool unlimited() const {
    return MaxPivots == 0 && MaxIlpNodes == 0 && WallMs <= 0;
  }

  /// True when \p W fits under the pivot and node caps. A run that
  /// charged \p W without tripping charges the same under any budget
  /// that admits it, and does not trip there either (wall clock aside).
  bool admits(const SolverWork &W) const {
    return (MaxPivots == 0 || W.Pivots <= MaxPivots) &&
           (MaxIlpNodes == 0 || W.Nodes <= MaxIlpNodes);
  }
};

namespace budget {

struct BudgetState;

/// Installs \p B on the current thread for the lifetime of the scope.
/// An unlimited budget installs nothing (charging stays free).
class BudgetScope {
public:
  explicit BudgetScope(const SolverBudget &B);
  ~BudgetScope();

  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

  /// True once any limit of this scope (not an outer one) has tripped.
  bool tripped() const;

private:
  BudgetState *S = nullptr;
};

/// Charges one simplex pivot to every active scope. \returns false when
/// a limit is exhausted (the caller should stop and report
/// BudgetExceeded). The first failing charge per scope also bumps the
/// lp.budget_exceeded counter.
bool chargePivot();

/// Charges one branch-and-bound node to every active scope.
bool chargeNode();

/// True when any active scope's wall-clock deadline has passed (and
/// only then — pivot/node exhaustion does not count; use anyTripped()
/// for that). Expiry trips the scope like an exhausted charge.
bool deadlineExpired();

/// True when any active scope has tripped any of its limits. Recovery
/// boundaries use this to attribute a failure to the budget.
bool anyTripped();

/// True when any budget scope is active on this thread (cheap check so
/// solver hot loops can skip the clock entirely).
bool active();

/// Every chargePivot()/chargeNode() call made on this thread so far,
/// passing or not. The simplex charges pivots only while some scope is
/// active (nodes always), so the pivot count is complete only under an
/// active scope.
SolverWork threadCharges();

} // namespace budget
} // namespace pinj

#endif // POLYINJECT_LP_BUDGET_H
