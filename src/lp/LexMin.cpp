//===- lp/LexMin.cpp ------------------------------------------------------===//
//
// Lexicographic minimization with warm-started levels. The old driver
// re-ran a full two-phase branch and bound from scratch at every
// objective level; this one keeps one tableau at a feasible basis across
// levels (phase 1 runs once), pins each level with addPinEquality's mini
// phase 1, and warm-starts branch-and-bound children from their parent's
// basis via bound tightening + dual simplex. The search itself is the
// one solveIlp runs (lp/BranchAndBound.h); only the relaxation differs.
//
// Bit-exactness: an intermediate level only contributes its optimal
// VALUE (the pin row), which is unique, so any correct solver may
// compute it. The FINAL level's point becomes the schedule, so that
// level always runs the exact cold solver (solveIlp), which replicates
// the original pivot sequence — schedules stay byte-identical. Any warm
// hiccup (cycling valve, pin failure) falls back to the exact solver
// for the level, trading speed for the same answer.
//
//===----------------------------------------------------------------------===//

#include "lp/LexMin.h"

#include "lp/BranchAndBound.h"
#include "obs/Journal.h"

using namespace pinj;

namespace {

/// The warm relaxation for one lexmin run: a persistent root tableau
/// that survives across objective levels, and per-node tableau copies
/// that take their branch as a bound row and re-enter optimization with
/// the dual simplex. Any failure flips Dead and the caller re-solves the
/// level with the exact cold path.
class WarmLexSolver {
  struct BoundInfo {
    unsigned SlackCol = 0;
    Int Bound = 0;
    bool Present = false;
  };

public:
  /// A node's own tableau plus its bound rows, per variable and side;
  /// empty at the root, which solves on the persistent tableau.
  struct State {
    SimplexTableau T;
    std::vector<BoundInfo> Le, Ge;
  };

  WarmLexSolver(const IlpProblem &Problem, unsigned NumLevels)
      : Problem(Problem) {
    unsigned NumIntegerVars = 0;
    for (bool I : Problem.IsInteger)
      if (I)
        ++NumIntegerVars;
    // Growth room: one pin row per non-final level, and along any
    // branch-and-bound path at most one upper and one lower bound row
    // per integer variable (later branches tighten in place).
    Reserve = (NumLevels - 1) + 2 * NumIntegerVars;
  }

  bool dead() const { return Dead; }
  void kill() { Dead = true; }

  /// Solves the level whose objective is Problem.Lp.Objective;
  /// \returns nullopt when the warm path gave up and the caller must
  /// run the exact solver instead.
  std::optional<IlpResult> solveLevel() {
    return branchAndBound(Problem, *this);
  }

  /// Solves one node for branchAndBound: the root on the persistent
  /// tableau, any other node on its own copy.
  NodeStatus solve(BnbNode<State> &Node, std::vector<Rational> &Point,
                   Rational &Value) {
    State &S = Node.State;
    SimplexTableau *Solved = &S.T;
    SimplexTableau::Outcome O;
    if (Node.Depth == 0) {
      // Root relaxation: full two-phase once, re-priced phase 2 after.
      // The root is read in place; Tab stays at the level's LP optimum
      // until the pin, so a root child copies it only when it is solved
      // (most levels never branch).
      const IntVector &Objective = Problem.Lp.Objective;
      if (!Built) {
        Tab.build(Problem.Lp, {}, Reserve, Reserve);
        Built = true;
        O = countedSolve(Tab, [&] { return Tab.solveTwoPhase(Objective); });
      } else {
        O = countedSolve(Tab, [&] { return Tab.reoptimize(Objective); });
      }
      Solved = &Tab;
    } else {
      if (Node.Depth == 1) {
        // A root child starts from its own copy of the root optimum.
        S.T = Tab;
        S.Le.assign(Problem.numVars(), BoundInfo());
        S.Ge.assign(Problem.numVars(), BoundInfo());
      }
      // Apply the branch bound: tighten an existing bound row in place
      // or append a fresh one in the current basis.
      BoundInfo &B = (Node.Upper ? S.Le : S.Ge)[Node.Var];
      if (B.Present) {
        // Upper rows encode rhs = bound, lower rows rhs = -bound.
        S.T.tightenBoundRow(B.SlackCol,
                            Node.Upper ? checkedSub(Node.Bound, B.Bound)
                                       : checkedSub(B.Bound, Node.Bound));
      } else {
        B.SlackCol = S.T.addBoundRow(Node.Var, Node.Upper, Node.Bound);
        B.Present = true;
      }
      B.Bound = Node.Bound;
      O = countedSolve(S.T, [&] { return S.T.dualReoptimize(); });
      // The dual simplex safety valve tripped without a real budget:
      // abandon the warm path for this level.
      if (O == SimplexTableau::Outcome::Budget && !budget::anyTripped())
        return NodeStatus::Abandon;
    }
    switch (O) {
    case SimplexTableau::Outcome::Budget:
      return NodeStatus::Budget;
    case SimplexTableau::Outcome::Infeasible:
      return NodeStatus::Infeasible;
    case SimplexTableau::Outcome::Unbounded:
      return NodeStatus::Unbounded;
    case SimplexTableau::Outcome::Optimal:
      break;
    }
    Solved->extractPoint(Point);
    Value = objectiveValue(Problem.Lp, Point);
    return NodeStatus::Optimal;
  }

  /// Pins the just-solved level at Coeffs . x == P on the persistent
  /// root basis. \returns false when the warm state is no longer usable.
  bool pin(const IntVector &Coeffs, Int P) {
    if (!Built)
      return false;
    unsigned Before = Tab.pivots();
    SimplexTableau::Outcome O = Tab.addPinEquality(Coeffs, P);
    // The mini phase 1 pivots count, but it is not a solve.
    countPivots(Tab.pivots() - Before);
    return O == SimplexTableau::Outcome::Optimal;
  }

private:
  const IlpProblem &Problem;
  SimplexTableau Tab;
  bool Built = false;
  bool Dead = false;
  unsigned Reserve = 0;
};

/// Per-dimension attribution: one solveLexMin call is one scheduler
/// dimension's solve, so the pivot/node totals it accumulated feed the
/// lp.*_per_dim histograms and the journal's solve_end record.
void recordDimensionSolve(const IlpResult &R, unsigned Levels,
                          std::uint64_t Pivots) {
  LpMetrics &M = lpMetrics();
  M.NodesPerDim.observe(R.NodesExplored);
  M.PivotsPerDim.observe(Pivots);
  journalSolveEnd(R, Levels, Pivots);
}

} // namespace

void pinj::journalSolveEnd(const IlpResult &R, unsigned Levels,
                           std::uint64_t Pivots) {
  if (!obs::Journal::fastEnabled())
    return;
  const char *Status = R.Status == IlpResult::Optimal      ? "optimal"
                       : R.Status == IlpResult::Infeasible ? "infeasible"
                                                           : "budget";
  obs::JournalEvent("solve_end")
      .field("levels", Levels)
      .field("nodes", R.NodesExplored)
      .field("pruned", R.NodesPruned)
      .field("incumbents", R.IncumbentUpdates)
      .field("max_depth", R.MaxDepth)
      .field("pivots", static_cast<unsigned long long>(Pivots))
      .field("status", Status);
}

IlpResult pinj::solveLexMin(IlpProblem Problem,
                            const std::vector<LexObjective> &Objectives) {
  IlpResult Last;
  const std::uint64_t PivotsBefore = threadSimplexPivots();
  if (Objectives.empty()) {
    // Pure feasibility.
    Problem.Lp.Objective.assign(Problem.numVars(), 0);
    Last = solveIlp(Problem);
    recordDimensionSolve(Last, 0, threadSimplexPivots() - PivotsBefore);
    return Last;
  }

  // Intermediate levels only contribute their (unique) optimal value to
  // the pin rows, so they may run warm; the final level's point is the
  // returned solution and always runs the exact cold solver.
  const unsigned NumLevels = Objectives.size();
  WarmLexSolver Warm(Problem, NumLevels);

  unsigned TotalNodes = 0;
  unsigned TotalPruned = 0;
  unsigned TotalIncumbents = 0;
  unsigned MaxDepth = 0;
  for (unsigned L = 0; L != NumLevels; ++L) {
    const LexObjective &Level = Objectives[L];
    assert(Level.Coeffs.size() == Problem.numVars() &&
           "objective width mismatch");
    const bool Final = L + 1 == NumLevels;
    Problem.Lp.Objective = Level.Coeffs;
    if (Final || Warm.dead()) {
      Last = solveIlp(Problem);
    } else if (std::optional<IlpResult> W = Warm.solveLevel()) {
      Last = std::move(*W);
    } else {
      Warm.kill();
      Last = solveIlp(Problem);
    }
    TotalNodes += Last.NodesExplored;
    TotalPruned += Last.NodesPruned;
    TotalIncumbents += Last.IncumbentUpdates;
    MaxDepth = std::max(MaxDepth, Last.MaxDepth);
    if (!Last.isOptimal()) {
      Last.NodesExplored = TotalNodes;
      Last.NodesPruned = TotalPruned;
      Last.IncumbentUpdates = TotalIncumbents;
      Last.MaxDepth = MaxDepth;
      recordDimensionSolve(Last, NumLevels,
                           threadSimplexPivots() - PivotsBefore);
      return Last;
    }
    // Pin this level at its optimum: q * (c . x) == p for Value == p/q.
    Int P = Last.Value.numerator();
    Int Q = Last.Value.denominator();
    IntVector Pinned(Problem.numVars(), 0);
    for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
      Pinned[V] = checkedMul(Q, Level.Coeffs[V]);
    if (!Final && !Warm.dead() && !Warm.pin(Pinned, P))
      Warm.kill();
    Problem.Lp.addEq(std::move(Pinned), checkedNeg(P));
  }
  Last.NodesExplored = TotalNodes;
  Last.NodesPruned = TotalPruned;
  Last.IncumbentUpdates = TotalIncumbents;
  Last.MaxDepth = MaxDepth;
  recordDimensionSolve(Last, NumLevels,
                       threadSimplexPivots() - PivotsBefore);
  return Last;
}
