//===- poly/Farkas.cpp ----------------------------------------------------===//

#include "poly/Farkas.h"

#include "support/FailPoint.h"

#include <algorithm>

using namespace pinj;

namespace {

/// A working copy of the polyhedron plus the form being certified, on
/// which equalities are Gauss-eliminated before the multipliers are
/// introduced: every unit-coefficient equality (the common case for
/// dependence relations, whose access equalities tie source and target
/// iterators) removes one dimension and one row, sharply shrinking the
/// ILP. Implicit nonnegativity of eliminated dimensions is preserved by
/// materializing the substituted expression as an inequality.
class ReducedSystem {
public:
  ReducedSystem(const AffineSet &P, const VarAffineForm &Psi)
      : Width(P.space().width()), NumDims(P.space().NumDims),
        Cols(Psi.Cols) {
    for (const SetConstraint &C : P.constraints()) {
      if (C.IsEquality)
        Equalities.push_back(C.Row);
      else
        Inequalities.push_back(C.Row);
    }
    eliminate();
    finalize();
  }

  const std::vector<IntVector> &inequalities() const { return Inequalities; }
  const std::vector<IntVector> &equalities() const { return Equalities; }
  const std::vector<SparseForm> &psiCols() const { return Cols; }
  unsigned width() const { return Width; }

private:
  /// Finds an equality with a +-1 coefficient on a dimension and
  /// substitutes that dimension away; repeats until exhausted.
  void eliminate() {
    for (;;) {
      unsigned EqIdx = Equalities.size(), Dim = Width;
      for (unsigned E = 0; E != Equalities.size() && Dim == Width; ++E) {
        for (unsigned D = 0; D != NumDims; ++D) {
          Int C = Equalities[E][D];
          if (C == 1 || C == -1) {
            EqIdx = E;
            Dim = D;
            break;
          }
        }
      }
      if (Dim == Width)
        return;
      // Equality: coeff * dim + rest == 0, coeff = +-1, so
      // dim == -coeff * rest. Substitution row S with S[Dim] == 0:
      // x_Dim := S . (x, 1).
      IntVector Eq = Equalities[EqIdx];
      Int Coeff = Eq[Dim];
      IntVector Subst(Width, 0);
      for (unsigned C = 0; C != Width; ++C)
        if (C != Dim)
          Subst[C] = checkedMul(checkedNeg(Coeff), Eq[C]);
      Equalities.erase(Equalities.begin() + EqIdx);

      auto substituteRow = [&](IntVector &Row) {
        Int Factor = Row[Dim];
        if (Factor == 0)
          return;
        Row[Dim] = 0;
        for (unsigned C = 0; C != Width; ++C)
          Row[C] = checkedAdd(Row[C], checkedMul(Factor, Subst[C]));
      };
      for (IntVector &Row : Inequalities)
        substituteRow(Row);
      for (IntVector &Row : Equalities)
        substituteRow(Row);
      // Preserve the implicit x_Dim >= 0 of the nonnegative orthant.
      Inequalities.push_back(Subst);
      // Fold the dimension's Psi coefficient into the remaining columns.
      SparseForm Folded = Cols[Dim];
      Cols[Dim] = SparseForm();
      for (unsigned C = 0; C != Width; ++C)
        if (Subst[C] != 0)
          Cols[C].addScaled(Folded, Subst[C]);
    }
  }

  /// Drops trivial rows (nonnegative constants), duplicates, and the
  /// equalities elimination reduced to 0 == 0 (their multipliers would
  /// appear in no row).
  void finalize() {
    Equalities.erase(std::remove_if(Equalities.begin(), Equalities.end(),
                                    [](const IntVector &Row) {
                                      return std::all_of(
                                          Row.begin(), Row.end(),
                                          [](Int V) { return V == 0; });
                                    }),
                     Equalities.end());
    std::vector<IntVector> Kept;
    for (IntVector &Row : Inequalities) {
      normalizeByGcd(Row);
      bool AllZero = true;
      for (unsigned C = 0; C + 1 != Width; ++C)
        if (Row[C] != 0)
          AllZero = false;
      if (AllZero && Row.back() >= 0)
        continue; // 0 >= -c with c >= 0: trivially true.
      if (std::find(Kept.begin(), Kept.end(), Row) == Kept.end())
        Kept.push_back(Row);
    }
    Inequalities = std::move(Kept);
  }

  unsigned Width;
  unsigned NumDims;
  std::vector<IntVector> Inequalities;
  std::vector<IntVector> Equalities;
  std::vector<SparseForm> Cols;
};

} // namespace

void pinj::addFarkasNonNegative(IlpBuilder &B, const AffineSet &P,
                                const VarAffineForm &Psi) {
  failpoint::hit("poly.farkas");
  unsigned Width = P.space().width();
  assert(Psi.Cols.size() == Width && "form width mismatch with set");

  ReducedSystem System(P, Psi);
  const std::vector<IntVector> &Ineqs = System.inequalities();

  // A dimension or parameter column's substituted row: an inequality
  // that touches only that column, with a +-1 coefficient (a box bound),
  // preferably with a zero constant. Its multiplier gets no variable.
  std::vector<unsigned> SubstRow(Width - 1, ~0u);
  for (unsigned K = 0; K != Ineqs.size(); ++K) {
    const IntVector &Row = Ineqs[K];
    unsigned Col = Width, Touched = 0;
    for (unsigned C = 0; C + 1 != Width; ++C)
      if (Row[C] != 0) {
        Col = C;
        ++Touched;
      }
    if (Touched != 1 || (Row[Col] != 1 && Row[Col] != -1))
      continue;
    unsigned &S = SubstRow[Col];
    if (S == ~0u || (Ineqs[S].back() != 0 && Row.back() == 0))
      S = K;
  }

  // One multiplier per other inequality; remaining equalities
  // (non-unit coefficients) get an unrestricted multiplier represented
  // as the difference of two nonnegative ones.
  struct Multiplier {
    const IntVector *Row;
    unsigned Pos; ///< lambda+ variable.
    unsigned Neg; ///< lambda- variable, or -1u for inequalities.
  };
  std::vector<Multiplier> Lambdas;
  for (unsigned K = 0; K != Ineqs.size(); ++K) {
    if (std::find(SubstRow.begin(), SubstRow.end(), K) != SubstRow.end())
      continue;
    Multiplier M;
    M.Row = &Ineqs[K];
    M.Pos = B.addVar(/*IsInteger=*/false);
    M.Neg = ~0u;
    Lambdas.push_back(M);
  }
  for (const IntVector &Row : System.equalities()) {
    Multiplier M;
    M.Row = &Row;
    M.Pos = B.addVar(/*IsInteger=*/false);
    M.Neg = B.addVar(/*IsInteger=*/false);
    Lambdas.push_back(M);
  }

  // For each column j: Psi[j] - sum_k lambda_k * Row_k[j] (==|>=) 0.
  // Columns over dims and params use equality; the constant column uses
  // >=, absorbing the nonnegative lambda_0. A column with a substituted
  // row S (coefficient s = +-1) solves its identity for lambda_S =
  // s * (Psi[j] - sum over the other k), so the equality becomes
  // lambda_S >= 0, and lambda_S * Row_S's constant is folded into the
  // constant column.
  SparseForm Folded;
  for (unsigned Col = 0; Col != Width; ++Col) {
    SparseForm Form = System.psiCols()[Col];
    for (const Multiplier &M : Lambdas) {
      Int Coeff = (*M.Row)[Col];
      Form.addTerm(M.Pos, checkedNeg(Coeff));
      if (M.Neg != ~0u)
        Form.addTerm(M.Neg, Coeff);
    }
    if (Col + 1 == Width)
      Form.addScaled(Folded, 1);
    if (Form.Terms.empty() && Form.Constant == 0)
      continue; // Nothing left, e.g. an eliminated column: 0 == 0.
    if (Col + 1 == Width) {
      B.addGe(Form);
    } else if (SubstRow[Col] == ~0u) {
      B.addEq(Form);
    } else {
      const IntVector &Row = Ineqs[SubstRow[Col]];
      SparseForm Lambda;
      Lambda.addScaled(Form, Row[Col]);
      B.addGe(Lambda);
      Folded.addScaled(Lambda, checkedNeg(Row.back()));
    }
  }
}
