//===- poly/Set.cpp -------------------------------------------------------===//

#include "poly/Set.h"

#include "lp/Simplex.h"

using namespace pinj;

void AffineSet::addGe(IntVector Row) {
  assert(Row.size() == Space.width() && "constraint width mismatch");
  Constraints.push_back({std::move(Row), /*IsEquality=*/false});
}

void AffineSet::addEq(IntVector Row) {
  assert(Row.size() == Space.width() && "constraint width mismatch");
  Constraints.push_back({std::move(Row), /*IsEquality=*/true});
}

void AffineSet::addDimBounds(unsigned Dim, Int Lo, Int Hi) {
  assert(Dim < Space.NumDims && "dimension out of range");
  IntVector Lower(Space.width(), 0);
  Lower[Dim] = 1;
  Lower.back() = checkedNeg(Lo);
  addGe(std::move(Lower)); // dim - Lo >= 0
  IntVector Upper(Space.width(), 0);
  Upper[Dim] = -1;
  Upper.back() = checkedSub(Hi, 1);
  addGe(std::move(Upper)); // Hi - 1 - dim >= 0
}

namespace {

/// Translates a set into an LP over its (dims, params) variables.
LpProblem toLp(const AffineSet &Set) {
  unsigned NumVars = Set.space().NumDims + Set.space().NumParams;
  LpProblem Lp(NumVars);
  for (const SetConstraint &C : Set.constraints()) {
    IntVector Coeffs(C.Row.begin(), C.Row.end() - 1);
    if (C.IsEquality)
      Lp.addEq(std::move(Coeffs), C.Row.back());
    else
      Lp.addGe(std::move(Coeffs), C.Row.back());
  }
  return Lp;
}

} // namespace

bool AffineSet::isEmpty() const {
  LpProblem Lp = toLp(*this);
  Lp.Objective.assign(Lp.NumVars, 0);
  return solveLp(Lp).Status == LpResult::Infeasible;
}

bool AffineSet::isAlwaysAtLeast(const IntVector &Expr, Int Bound) const {
  // Expr >= Bound everywhere iff {set and Expr <= Bound - 1} is empty
  // (over the rationals we test Expr < Bound via Expr <= Bound - 1, which
  // is exact for integer points; rational points in between make the test
  // conservative in the safe direction).
  AffineSet Restricted = *this;
  IntVector Row(Expr.size());
  for (size_t I = 0, E = Expr.size(); I != E; ++I)
    Row[I] = checkedNeg(Expr[I]);
  Row.back() = checkedAdd(Row.back(), checkedSub(Bound, 1));
  Restricted.addGe(std::move(Row)); // Bound - 1 - Expr >= 0
  return Restricted.isEmpty();
}

bool AffineSet::isAlwaysZero(const IntVector &Expr) const {
  IntVector Negated(Expr.size());
  for (size_t I = 0, E = Expr.size(); I != E; ++I)
    Negated[I] = checkedNeg(Expr[I]);
  return isAlwaysAtLeast(Expr, 0) && isAlwaysAtLeast(Negated, 0);
}

std::string AffineSet::str() const {
  std::string Out = "{ dims=" + std::to_string(Space.NumDims) +
                    " params=" + std::to_string(Space.NumParams) + "\n";
  for (const SetConstraint &C : Constraints) {
    Out += "  [";
    for (size_t I = 0, E = C.Row.size(); I != E; ++I) {
      if (I != 0)
        Out += " ";
      Out += std::to_string(C.Row[I]);
    }
    Out += C.IsEquality ? "] == 0\n" : "] >= 0\n";
  }
  Out += "}";
  return Out;
}
