//===- lp/Builder.cpp -----------------------------------------------------===//

#include "lp/Builder.h"

#include "lp/IlpMemo.h"

#include <algorithm>

using namespace pinj;

void SparseForm::addScaled(const SparseForm &Other, Int Scale) {
  if (Scale == 0)
    return;
  for (const auto &[Var, Coeff] : Other.Terms)
    Terms.emplace_back(Var, checkedMul(Coeff, Scale));
  Constant = checkedAdd(Constant, checkedMul(Other.Constant, Scale));
}

IntVector SparseForm::densify(unsigned NumVars) const {
  IntVector Row(NumVars, 0);
  for (const auto &[Var, Coeff] : Terms) {
    assert(Var < NumVars && "sparse term references unknown variable");
    Row[Var] = checkedAdd(Row[Var], Coeff);
  }
  return Row;
}

SparseForm SparseForm::canonical() const {
  SparseForm Out;
  Out.Constant = Constant;
  Out.Terms = Terms;
  std::sort(Out.Terms.begin(), Out.Terms.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  // Sum each variable's run of terms in place, keeping nonzero sums.
  std::size_t Kept = 0;
  for (std::size_t I = 0, E = Out.Terms.size(); I != E;) {
    const unsigned Var = Out.Terms[I].first;
    Int Sum = 0;
    for (; I != E && Out.Terms[I].first == Var; ++I)
      Sum = checkedAdd(Sum, Out.Terms[I].second);
    if (Sum != 0)
      Out.Terms[Kept++] = {Var, Sum};
  }
  Out.Terms.resize(Kept);
  return Out;
}

unsigned IlpBuilder::addVar(bool IsInteger) {
  Integrality.push_back(IsInteger);
  return Integrality.size() - 1;
}

void IlpBuilder::addUpperBound(unsigned Var, Int Bound) {
  SparseForm Form;
  Form.addTerm(Var, -1);
  Form.addConstant(Bound);
  addGe(Form);
}

void IlpBuilder::truncate(unsigned NumRows, unsigned NumObjectives) {
  assert(NumRows <= Rows.size() && NumObjectives <= Objectives.size() &&
         "truncate beyond current size");
  Rows.resize(NumRows);
  Objectives.resize(NumObjectives);
}

IlpBuilder::ConstraintBlock IlpBuilder::captureBlock(unsigned VarMark,
                                                     unsigned RowMark) const {
  assert(VarMark <= numVars() && RowMark <= Rows.size() &&
         "capture marks beyond current size");
  ConstraintBlock Block;
  Block.VarBase = VarMark;
  Block.Integrality.assign(Integrality.begin() + VarMark, Integrality.end());
  for (unsigned R = RowMark, E = Rows.size(); R != E; ++R)
    Block.Rows.emplace_back(Rows[R].Form, Rows[R].Kind);
  return Block;
}

void IlpBuilder::replayBlock(const ConstraintBlock &Block) {
  const unsigned NewBase = numVars();
  Integrality.insert(Integrality.end(), Block.Integrality.begin(),
                     Block.Integrality.end());
  for (const auto &[Form, Kind] : Block.Rows) {
    SparseForm Rebased = Form;
    for (auto &[Var, Coeff] : Rebased.Terms) {
      (void)Coeff;
      if (Var >= Block.VarBase)
        Var = Var - Block.VarBase + NewBase;
    }
    Rows.push_back({std::move(Rebased), Kind});
  }
}

std::pair<IlpProblem, std::vector<LexObjective>>
IlpBuilder::materialize() const {
  IlpProblem Problem(numVars());
  for (unsigned V = 0, E = numVars(); V != E; ++V)
    if (Integrality[V])
      Problem.markInteger(V);
  for (const Row &R : Rows) {
    IntVector Dense = R.Form.densify(numVars());
    switch (R.Kind) {
    case RowGe:
      Problem.Lp.addGe(std::move(Dense), R.Form.Constant);
      break;
    case RowEq:
      Problem.Lp.addEq(std::move(Dense), R.Form.Constant);
      break;
    case RowLe:
      Problem.Lp.addLe(std::move(Dense), R.Form.Constant);
      break;
    }
  }
  std::vector<LexObjective> Levels;
  for (const SparseForm &Objective : Objectives)
    Levels.emplace_back(Objective.densify(numVars()));
  return {std::move(Problem), std::move(Levels)};
}

IlpResult IlpBuilder::solve() const {
  if (IlpMemo *Memo = currentIlpMemo())
    return Memo->solve(*this);
  auto [Problem, Levels] = materialize();
  return solveLexMin(std::move(Problem), Levels);
}
