//===- math/LinearAlgebra.cpp ---------------------------------------------===//

#include "math/LinearAlgebra.h"

#include "math/Rational.h"

using namespace pinj;

namespace {

/// A dense rational matrix used internally for Gaussian elimination.
class RatMatrix {
public:
  explicit RatMatrix(const IntMatrix &M)
      : Columns(M.numCols()),
        Data(M.numRows(), std::vector<Rational>(M.numCols())) {
    for (unsigned R = 0, NR = M.numRows(); R != NR; ++R)
      for (unsigned C = 0; C != Columns; ++C)
        Data[R][C] = Rational(M.at(R, C));
  }

  unsigned numRows() const { return Data.size(); }
  unsigned numCols() const { return Columns; }
  Rational &at(unsigned R, unsigned C) { return Data[R][C]; }
  const Rational &at(unsigned R, unsigned C) const { return Data[R][C]; }

  /// Reduces to row echelon form; \returns the pivot column of each pivot
  /// row, in order.
  std::vector<unsigned> rowEchelon() {
    std::vector<unsigned> PivotCols;
    unsigned PivotRow = 0;
    for (unsigned Col = 0; Col < Columns && PivotRow < numRows(); ++Col) {
      // Find a row with a nonzero entry in this column.
      unsigned Found = PivotRow;
      while (Found < numRows() && Data[Found][Col].isZero())
        ++Found;
      if (Found == numRows())
        continue;
      std::swap(Data[PivotRow], Data[Found]);
      // Normalize the pivot row.
      Rational Pivot = Data[PivotRow][Col];
      for (unsigned C = Col; C < Columns; ++C)
        Data[PivotRow][C] /= Pivot;
      // Eliminate the column everywhere else (reduced echelon form).
      for (unsigned R = 0; R < numRows(); ++R) {
        if (R == PivotRow || Data[R][Col].isZero())
          continue;
        Rational Factor = Data[R][Col];
        for (unsigned C = Col; C < Columns; ++C)
          Data[R][C] -= Factor * Data[PivotRow][C];
      }
      PivotCols.push_back(Col);
      ++PivotRow;
    }
    return PivotCols;
  }

private:
  unsigned Columns;
  std::vector<std::vector<Rational>> Data;
};

} // namespace

unsigned pinj::matrixRank(const IntMatrix &M) {
  if (M.empty())
    return 0;
  RatMatrix R(M);
  return R.rowEchelon().size();
}

IntMatrix pinj::nullspaceBasis(const IntMatrix &M) {
  unsigned Cols = M.numCols();
  if (M.empty() || M.numRows() == 0) {
    // Nullspace is the whole space: return the identity basis.
    IntMatrix Identity(Cols, Cols);
    for (unsigned I = 0; I != Cols; ++I)
      Identity.at(I, I) = 1;
    return Identity;
  }

  RatMatrix R(M);
  std::vector<unsigned> PivotCols = R.rowEchelon();

  // Mark pivot columns.
  std::vector<bool> IsPivot(Cols, false);
  for (unsigned C : PivotCols)
    IsPivot[C] = true;

  IntMatrix Basis(0, Cols);
  for (unsigned Free = 0; Free != Cols; ++Free) {
    if (IsPivot[Free])
      continue;
    // Basis vector: free column = 1, other free columns = 0, pivot columns
    // determined by back-substitution from the reduced echelon form.
    std::vector<Rational> V(Cols, Rational(0));
    V[Free] = Rational(1);
    for (unsigned P = 0, E = PivotCols.size(); P != E; ++P)
      V[PivotCols[P]] = -R.at(P, Free);
    // Scale to integers: multiply by the lcm of denominators.
    Int Lcm = 1;
    for (const Rational &X : V)
      Lcm = lcmInt(Lcm, X.denominator());
    IntVector IntV(Cols, 0);
    for (unsigned C = 0; C != Cols; ++C) {
      Rational Scaled = V[C] * Rational(Lcm);
      assert(Scaled.isInteger() && "lcm scaling must clear denominators");
      IntV[C] = Scaled.numerator();
    }
    normalizeByGcd(IntV);
    Basis.appendRow(IntV);
  }
  return Basis;
}
