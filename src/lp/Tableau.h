//===- lp/Tableau.h - Flat exact simplex tableau ----------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense exact simplex tableau behind solveLp and the warm-started
/// branch and bound. Like isl's isl_tab it stores integer rows: each row
/// is a vector of 64-bit numerators over one positive 64-bit row
/// denominator (entry (R, C) is row(R)[C] / Den[R]), and the objective
/// row has its own denominator. The rows live in one flat row-major
/// buffer, so a pivot is a run of contiguous integer multiply-subtracts.
///
/// Exactness. The rows represent exactly the rationals the textbook
/// tableau holds, and every decision compares exact integer
/// cross-products of those values (in 128 bits where they can exceed 64):
/// Dantzig pricing, the primal ratio test, the dual leaving row and ratio
/// test, and every Bland tie-break. So each solve makes the pivots of the
/// rational tableau (lp/Reference) and returns the same point.
///
/// Arithmetic. A pivot divides the pivot row by its pivot entry, which
/// only moves the entry's magnitude into the row denominator. Each other
/// row with a nonzero entry in the pivot column is first scaled by
/// den / gcd(den, entry), where den is the pivot row's denominator
/// (skipped when that is 1), and then updated in the pivot row's nonzero
/// columns only. Rows are gcd-normalized lazily: when the denominator
/// passes 2^40, or when a checked 64-bit multiply or subtract overflows
/// (the row is then recomputed in 128 bits and reduced). A row that does
/// not fit 64 bits even reduced raises StatusCode::Overflow at
/// "lp.tableau"; nothing ever wraps. Normalizing costs multiplies, not
/// divisions: with the running gcd G = 2^s * odd and inv the inverse of
/// odd mod 2^64, an entry M is a multiple of G iff its low s bits are
/// zero and (M >> s) * inv <= UINT64_MAX / odd, so a gcd step runs only
/// for the rare entry that fails this screen; each quotient is then
/// (V >> s) * inv (exact division, zeros stay zero). The normalization
/// schedule changes no decision, since every decision compares exact
/// values. Nor does it change which rows overflow: the fully reduced row
/// is unique (short of a -2^63 entry that a negative pivot negates).
///
/// Initial basis. build() negates every row whose right-hand side is
/// negative, and also every >= row whose right-hand side is zero, so
/// that the row's slack has coefficient +1 and starts basic. Only
/// equalities and the rows the origin violates get an artificial, and
/// phase 1 covers only those. The Farkas blocks of a scheduling dimension
/// are mostly zero-rhs >= rows (see poly/Farkas.h), so phase 1 there is
/// short. lp/Reference builds its basis by the same rule, so the pivots
/// stay the same.
///
/// Operations:
///
///   - solveTwoPhase() runs the two-phase primal simplex (Dantzig with a
///     Bland switch after a degeneracy streak);
///   - addBoundRow()/tightenBoundRow() append or tighten single-variable
///     bound rows in the current basis (branch-and-bound branches by
///     bounds instead of copying the problem);
///   - dualReoptimize() re-enters optimization after a bound change
///     (the basis stays dual feasible, so the dual simplex restores
///     primal feasibility without a phase 1);
///   - addPinEquality() adds a lexmin level-pin row with one artificial
///     and a mini phase 1 from the current basis, so solveLexMin reuses
///     its feasible basis across objective levels;
///   - reoptimize() swaps in the next level's objective and re-minimizes
///     from the current basis.
///
/// Capacity for rows/columns added after build() is reserved up front so
/// warm growth never re-layouts the buffer, and a copy of the tableau
/// keeps that room.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_TABLEAU_H
#define POLYINJECT_LP_TABLEAU_H

#include "lp/Simplex.h"

namespace pinj {

class SimplexTableau {
public:
  enum class Outcome { Optimal, Unbounded, Infeasible, Budget };

  SimplexTableau() = default;

  /// Loads \p Base's constraints followed by \p Extra (the
  /// branch-and-bound path rows) and sets up the phase-1 basis with the
  /// column layout structural | slacks (row order) | artificials (only
  /// where needed). Reserves capacity for \p ReserveRows extra rows and
  /// \p ReserveCols extra columns.
  void build(const LpProblem &Base, const std::vector<LpConstraint> &Extra,
             unsigned ReserveRows = 0, unsigned ReserveCols = 0);

  /// Runs phase 1 + phase 2 for \p Objective (empty = feasibility).
  /// Leaves the tableau at the optimal basis on Outcome::Optimal.
  Outcome solveTwoPhase(const IntVector &Objective);

  /// Swaps in a new objective over the structural variables and
  /// re-minimizes from the current (primal feasible) basis — phase 2
  /// only, no phase 1.
  Outcome reoptimize(const IntVector &Objective);

  /// Restores primal feasibility after a bound change with the dual
  /// simplex; the basis must be dual feasible (it is, right after an
  /// optimal (re)optimization). Outcome::Infeasible means the primal
  /// problem became empty.
  Outcome dualReoptimize();

  /// Appends the row  x[Var] <= Bound  (\p Upper) or  x[Var] >= Bound,
  /// expressed in the current basis with a fresh basic slack.
  /// \returns the slack's column, the handle for tightenBoundRow.
  unsigned addBoundRow(unsigned Var, bool Upper, Int Bound);

  /// Tightens a bound row added by addBoundRow in place: shifts every
  /// current right-hand side by Delta * column(SlackCol), where \p Delta
  /// is the change of the row's original right-hand side (new bound
  /// minus old bound for upper rows, old minus new for lower rows).
  void tightenBoundRow(unsigned SlackCol, Int Delta);

  /// Appends the lexmin pin row  Coeffs . x == Rhs  with one artificial
  /// variable and minimizes it to zero from the current feasible basis
  /// (the "mini phase 1"). Outcome::Infeasible when the row cannot be
  /// satisfied.
  Outcome addPinEquality(const IntVector &Coeffs, Int Rhs);

  /// Writes the structural solution of the current basis.
  void extractPoint(std::vector<Rational> &Point) const;

  /// Pivots performed since build().
  unsigned pivots() const { return PivotCount; }

  unsigned numRows() const { return Rows; }
  unsigned numCols() const { return Cols; }

private:
  Int *row(unsigned R) { return Cells.data() + size_t(R) * Stride; }
  const Int *row(unsigned R) const {
    return Cells.data() + size_t(R) * Stride;
  }
  Int &at(unsigned R, unsigned C) { return row(R)[C]; }
  Int rhs(unsigned R) const { return row(R)[Stride - 1]; }

  /// Resets the objective row to zero over denominator 1.
  void clearObjective();

  /// Appends a fresh row/column pair (value cells zeroed); \returns the
  /// new column index. Capacity must have been reserved.
  unsigned appendRowAndColumn();

  /// Copies DenseScratch (over DenseDen) into the freshly appended last
  /// row, with the row's own basic column \p NewCol at value 1.
  void storeAppendedRow(unsigned NewCol);

  /// Expresses DenseScratch (over structural and existing columns, the
  /// right-hand side at Stride - 1, denominator DenseDen) in the
  /// current basis by eliminating the basic variables.
  void reduceAgainstBasis();

  /// Fills NonZeroScratch with \p Source's nonzero active columns,
  /// right-hand side last.
  void gatherNonZeros(const Int *Source);

  /// Target -= (Target[Col] / Source[Col]) * Source, where Source[Col]
  /// equals SourceDen (the value 1) and NonZeroScratch lists Source's
  /// nonzero columns.
  void eliminate(Int *Target, Int &TargetDen, const Int *Source,
                 Int SourceDen, unsigned Col);

  /// Finishes an eliminate whose 64-bit update overflowed, in 128 bits:
  /// active positions below \p Scaled were already multiplied by Scale
  /// (position Cols is the right-hand side), and NonZeroScratch entries
  /// below \p Subtracted already had Quot * Source subtracted.
  void eliminateWide(Int *Target, Int &TargetDen, const Int *Source,
                     Int Quot, Int Scale, unsigned Scaled,
                     unsigned Subtracted);

  /// Divides \p Row and \p Den by the gcd of all their entries.
  void normalizeRow(Int *Row, Int &Den) const;

  /// Stores WideScratch over \p Den into \p Row and \p RowDen, reduced
  /// by their gcd; raises Overflow when the reduced row exceeds 64 bits.
  void storeWide(Int *Row, Int &RowDen, Int128 Den);

  Outcome minimize();
  void priceOutBasis();
  void pivot(unsigned PivotRow, unsigned PivotCol);

  unsigned Rows = 0;
  unsigned Cols = 0;   ///< Active columns (excluding the RHS).
  unsigned Stride = 0; ///< Row stride; RHS lives at Stride - 1.
  unsigned RowCapacity = 0;
  unsigned NumStructural = 0;
  unsigned PivotCount = 0;
  std::vector<Int> Cells; ///< Row numerators, RowCapacity x Stride.
  std::vector<Int> Den;   ///< Positive row denominators.
  std::vector<Int> ObjRow;
  Int ObjDen = 1;
  std::vector<unsigned> Basis;
  std::vector<bool> ColIsArtificial;
  std::vector<unsigned> NonZeroScratch; ///< Source-row sparsity pattern.
  std::vector<Int> DenseScratch;        ///< Row-append scratch.
  Int DenseDen = 1;
  std::vector<Int128> WideScratch; ///< Overflow-path row.
};

} // namespace pinj

#endif // POLYINJECT_LP_TABLEAU_H
