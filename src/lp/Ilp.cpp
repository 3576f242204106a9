//===- lp/Ilp.cpp ---------------------------------------------------------===//

#include "lp/Ilp.h"

#include "lp/BranchAndBound.h"

using namespace pinj;

namespace {

/// The cold relaxation: each node re-solves base + its root-to-node
/// path of bound rows from scratch through solveLpExt, which replicates
/// the original pivot sequence exactly. PathRows is shared by all nodes;
/// entering a node truncates it to the parent's path and appends the
/// node's own row, so no node copies any problem state.
class ColdRelaxation {
public:
  struct State {};

  explicit ColdRelaxation(const IlpProblem &Problem) : Problem(Problem) {}

  /// Solves one node for branchAndBound.
  NodeStatus solve(BnbNode<State> &Node, std::vector<Rational> &Point,
                   Rational &Value) {
    if (Node.Depth != 0) {
      PathRows.resize(Node.Depth - 1);
      IntVector Coeffs(Problem.numVars(), 0);
      Coeffs[Node.Var] = 1;
      PathRows.emplace_back(std::move(Coeffs), checkedNeg(Node.Bound),
                            Node.Upper ? LpConstraint::LE
                                       : LpConstraint::GE);
    }
    LpResult Relaxed = solveLpExt(Problem.Lp, PathRows);
    switch (Relaxed.Status) {
    case LpResult::BudgetExceeded:
      return NodeStatus::Budget;
    case LpResult::Infeasible:
      return NodeStatus::Infeasible;
    case LpResult::Unbounded:
      return NodeStatus::Unbounded;
    case LpResult::Optimal:
      break;
    }
    Point = std::move(Relaxed.Point);
    Value = Relaxed.Value;
    return NodeStatus::Optimal;
  }

private:
  const IlpProblem &Problem;
  std::vector<LpConstraint> PathRows;
};

} // namespace

IlpResult pinj::solveIlp(const IlpProblem &Problem) {
  assert(Problem.IsInteger.size() == Problem.numVars() &&
         "integrality flags out of sync");
  ColdRelaxation Relax(Problem);
  return *branchAndBound(Problem, Relax);
}
