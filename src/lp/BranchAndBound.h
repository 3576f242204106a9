//===- lp/BranchAndBound.h - The one branch-and-bound search ----*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The depth-first branch and bound behind solveIlp and the warm lexmin
/// levels, and the one place a simplex solve is counted. Internal to lp/.
///
/// branchAndBound() owns the search: an explicit worklist (deep
/// branching chains cannot blow the call stack), the down branch popped
/// first, branching on the first fractional integer variable, the
/// incumbent and its `Value >= IncumbentValue` prune, one
/// budget::chargeNode() per node, the result assembly and the lp.ilp_* /
/// lp.bnb_* metrics. It is templated on the relaxation that solves one
/// node's LP, so the per-node call is static:
///
/// \code
///   struct Relaxation {
///     using State = ...; // What a node inherits from its parent.
///     // Solves Node's LP; on Optimal fills Point and Value.
///     NodeStatus solve(BnbNode<State> &Node, std::vector<Rational> &Point,
///                      Rational &Value);
///   };
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_BRANCHANDBOUND_H
#define POLYINJECT_LP_BRANCHANDBOUND_H

#include "lp/Budget.h"
#include "lp/Ilp.h"
#include "lp/Tableau.h"
#include "obs/Metrics.h"
#include "support/FailPoint.h"
#include "support/Status.h"

#include <algorithm>
#include <optional>

namespace pinj {

/// Every lp.* metric the solvers record, registered once.
struct LpMetrics {
  obs::Counter &SimplexSolves;
  obs::Counter &SimplexPivots;
  obs::Histogram &PivotsPerSolve;
  obs::Counter &IlpSolves;
  obs::Counter &IlpFailures;
  obs::Counter &IlpNodes;
  obs::Histogram &NodesPerSolve;
  obs::Counter &BnbPruned;
  obs::Counter &BnbIncumbents;
  obs::Histogram &BnbMaxDepth;
  obs::Histogram &NodesPerDim;
  obs::Histogram &PivotsPerDim;
};

inline LpMetrics &lpMetrics() {
  static LpMetrics M{obs::metrics().counter("lp.simplex_solves"),
                     obs::metrics().counter("lp.simplex_pivots"),
                     obs::metrics().histogram("lp.pivots_per_solve"),
                     obs::metrics().counter("lp.ilp_solves"),
                     obs::metrics().counter("lp.ilp_failures"),
                     obs::metrics().counter("lp.ilp_nodes"),
                     obs::metrics().histogram("lp.ilp_nodes_per_solve"),
                     obs::metrics().counter("lp.bnb_pruned"),
                     obs::metrics().counter("lp.bnb_incumbent_updates"),
                     obs::metrics().histogram("lp.bnb_max_depth"),
                     obs::metrics().histogram("lp.nodes_per_dim"),
                     obs::metrics().histogram("lp.pivots_per_dim")};
  return M;
}

/// Adds \p N pivots to this thread's threadSimplexPivots() tally.
void addThreadSimplexPivots(std::uint64_t N);

/// Emits the journal's solve_end record of one lexmin solve: \p R with
/// its node fields summed over \p Levels objective levels, which took
/// \p Pivots simplex pivots.
void journalSolveEnd(const IlpResult &R, unsigned Levels,
                     std::uint64_t Pivots);

/// \returns \p Problem's objective at \p Point, exactly.
Rational objectiveValue(const LpProblem &Problem,
                        const std::vector<Rational> &Point);

/// Counts \p Pivots simplex pivots in lp.simplex_pivots and the thread
/// tally. Pivots outside a solve (the lexmin pin's mini phase 1) are
/// counted by this alone.
inline void countPivots(unsigned Pivots) {
  lpMetrics().SimplexPivots.add(Pivots);
  addThreadSimplexPivots(Pivots);
}

/// Runs \p Solve, one simplex solve on the already built \p T, and counts
/// it: lp.simplex_solves and the lp.simplex fail point before, the
/// solve's pivots into lp.pivots_per_solve and countPivots after. Every
/// simplex solve in lp/ goes through here.
template <class SolveFn>
SimplexTableau::Outcome countedSolve(SimplexTableau &T, SolveFn &&Solve) {
  LpMetrics &M = lpMetrics();
  M.SimplexSolves.inc();
  failpoint::hit("lp.simplex");
  unsigned Before = T.pivots();
  SimplexTableau::Outcome O = Solve();
  unsigned Pivots = T.pivots() - Before;
  M.PivotsPerSolve.observe(Pivots);
  countPivots(Pivots);
  return O;
}

/// A branch-and-bound node: the state inherited from its parent plus the
/// one bound its branch adds (none at the root).
template <class StateT> struct BnbNode {
  StateT State;
  unsigned Depth = 0; ///< Branches on the root-to-node path.
  /// The branch: x[Var] <= Bound when Upper, else x[Var] >= Bound.
  unsigned Var = 0;
  Int Bound = 0;
  bool Upper = false;
};

/// How a node's relaxation ended. Budget means an enclosing SolverBudget
/// tripped and the search stops; Abandon means the relaxation gave up
/// without one and the caller must re-solve by other means.
enum class NodeStatus { Optimal, Infeasible, Unbounded, Budget, Abandon };

/// Runs the search over \p Relax. \returns nullopt when a node was
/// abandoned; that search records only its nodes.
template <class Relaxation>
std::optional<IlpResult> branchAndBound(const IlpProblem &Problem,
                                        Relaxation &Relax) {
  using Node = BnbNode<typename Relaxation::State>;
  LpMetrics &M = lpMetrics();
  M.IlpSolves.inc();
  failpoint::hit("lp.ilp");

  IlpResult Result;
  bool HaveIncumbent = false;
  bool Exhausted = false;
  std::vector<Node> Work(1);
  std::vector<Rational> Point;
  Rational Value;
  while (!Work.empty()) {
    Node N = std::move(Work.back());
    Work.pop_back();
    if (!budget::chargeNode()) {
      Exhausted = true;
      break;
    }
    ++Result.NodesExplored;
    Result.MaxDepth = std::max(Result.MaxDepth, N.Depth);
    NodeStatus S = Relax.solve(N, Point, Value);
    if (S == NodeStatus::Abandon) {
      M.IlpNodes.add(Result.NodesExplored);
      M.NodesPerSolve.observe(Result.NodesExplored);
      return std::nullopt;
    }
    if (S == NodeStatus::Budget) {
      Exhausted = true;
      break;
    }
    if (S == NodeStatus::Infeasible)
      continue;
    // An unbounded relaxation cannot be pruned; in this project
    // objectives are sums of nonnegative variables, so this indicates a
    // misuse.
    if (S == NodeStatus::Unbounded)
      raiseError(StatusCode::SolverError, "lp.ilp",
                 "unbounded ILP relaxation");
    if (HaveIncumbent && Value >= Result.Value) {
      ++Result.NodesPruned;
      continue; // Bound: cannot improve on the incumbent.
    }

    const unsigned E = Problem.numVars();
    unsigned Fractional = 0;
    for (; Fractional != E; ++Fractional)
      if (Problem.IsInteger[Fractional] && !Point[Fractional].isInteger())
        break;
    if (Fractional == E) {
      // Integral and, past the prune, better: the new incumbent.
      Result.Point = std::move(Point);
      Result.Value = Value;
      HaveIncumbent = true;
      ++Result.IncumbentUpdates;
      continue;
    }

    // The up branch is pushed first so the down branch pops first; the
    // down branch inherits the node's state, the up branch a copy.
    Int Floor = Point[Fractional].floor();
    Work.push_back(
        {N.State, N.Depth + 1, Fractional, checkedAdd(Floor, 1), false});
    Work.push_back({std::move(N.State), N.Depth + 1, Fractional, Floor, true});
  }

  // A search stopped early keeps its incumbent (feasible, unproven); the
  // absence of one proves nothing.
  Result.Status = Exhausted       ? IlpResult::BudgetExceeded
                  : HaveIncumbent ? IlpResult::Optimal
                                  : IlpResult::Infeasible;
  if (!Result.isOptimal())
    M.IlpFailures.inc();
  M.IlpNodes.add(Result.NodesExplored);
  M.NodesPerSolve.observe(Result.NodesExplored);
  M.BnbPruned.add(Result.NodesPruned);
  M.BnbIncumbents.add(Result.IncumbentUpdates);
  M.BnbMaxDepth.observe(Result.MaxDepth);
  return Result;
}

} // namespace pinj

#endif // POLYINJECT_LP_BRANCHANDBOUND_H
