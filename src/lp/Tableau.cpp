//===- lp/Tableau.cpp -----------------------------------------------------===//

#include "lp/Tableau.h"

#include "lp/Budget.h"

using namespace pinj;

namespace {

/// A row whose denominator passes this bound is gcd-normalized. Every
/// decision compares exact values, so the bound only trades the cost of
/// normalizing against the cost of the 128-bit path when a row outgrows
/// 64 bits unreduced.
constexpr Int DenBound = Int(1) << 40;

/// Exact division by a fixed divisor G = 2^Shift * Odd (Granlund and
/// Montgomery's divexact). Inv is Odd's inverse mod 2^64, so a multiple
/// V of G divides as (V >> Shift) * Inv, and a magnitude M is a multiple
/// of G iff its low Shift bits are zero and (M >> Shift) * Inv does not
/// exceed UINT64_MAX / Odd.
class ExactDivisor {
public:
  explicit ExactDivisor(std::uint64_t G)
      : Shift(__builtin_ctzll(G)), LowMask((std::uint64_t(1) << Shift) - 1) {
    const std::uint64_t Odd = G >> Shift;
    // Odd * Odd == 1 mod 8, so Odd is its own inverse to 3 bits; each
    // Newton step doubles the correct bits: 3 -> 6 -> 12 -> 24 -> 48 -> 96.
    Inv = Odd;
    for (int Step = 0; Step != 5; ++Step)
      Inv *= 2 - Odd * Inv;
    Limit = UINT64_MAX / Odd;
  }

  bool divides(std::uint64_t M) const {
    return (M & LowMask) == 0 && (M >> Shift) * Inv <= Limit;
  }

  /// V / G for a multiple V of G; zero stays zero.
  Int divide(Int V) const {
    return static_cast<Int>(static_cast<std::uint64_t>(V >> Shift) * Inv);
  }

private:
  unsigned Shift;
  std::uint64_t LowMask;
  std::uint64_t Inv;
  std::uint64_t Limit;
};

[[noreturn]] void tableauOverflow() {
  raiseError(StatusCode::Overflow, "lp.tableau",
             "tableau row exceeds 64 bits after normalization");
}

Int negated(Int V) {
  if (V == INT64_MIN)
    tableauOverflow();
  return -V;
}

} // namespace

void SimplexTableau::build(const LpProblem &Base,
                           const std::vector<LpConstraint> &Extra,
                           unsigned ReserveRows, unsigned ReserveCols) {
  NumStructural = Base.NumVars;
  const unsigned NumBase = Base.Constraints.size();
  const unsigned NumRows = NumBase + Extra.size();
  auto constraintAt = [&](unsigned R) -> const LpConstraint & {
    return R < NumBase ? Base.Constraints[R] : Extra[R - NumBase];
  };

  // Count slack variables (one per inequality) and find the rows whose
  // slack can serve as the initial basis: after normalizing the
  // right-hand side to be nonnegative, a +1 slack coefficient gives a
  // feasible basic variable, so no artificial is needed for the row.
  unsigned NumSlacks = 0;
  for (unsigned R = 0; R != NumRows; ++R)
    if (constraintAt(R).Kind != LpConstraint::EQ)
      ++NumSlacks;

  std::vector<Int> RowSign(NumRows, 1);
  std::vector<bool> NeedsArtificial(NumRows, true);
  unsigned NumArtificials = 0;
  for (unsigned R = 0; R != NumRows; ++R) {
    const LpConstraint &C = constraintAt(R);
    Int Rhs = checkedNeg(C.Constant);
    // A >= row with a zero right-hand side is negated too: its slack then
    // has coefficient +1 and starts basic at zero, with no artificial.
    if (Rhs < 0 || (Rhs == 0 && C.Kind == LpConstraint::GE))
      RowSign[R] = -1;
    if (C.Kind != LpConstraint::EQ) {
      Int SlackSign =
          checkedMul(RowSign[R], C.Kind == LpConstraint::GE ? -1 : 1);
      NeedsArtificial[R] = SlackSign != 1;
    }
    if (NeedsArtificial[R])
      ++NumArtificials;
  }

  // Columns: structural | slacks (row order) | artificials (only where
  // needed) — the reference layout, so pivot sequences match.
  const unsigned SlackBase = NumStructural;
  const unsigned ArtBase = NumStructural + NumSlacks;
  const unsigned NumCols = ArtBase + NumArtificials;

  Rows = NumRows;
  Cols = NumCols;
  Stride = NumCols + ReserveCols + 1;
  RowCapacity = NumRows + ReserveRows;
  PivotCount = 0;
  // Every vector is sized to full capacity up front: copies of a warm
  // tableau (branch-and-bound snapshots) must keep the growth room.
  Cells.assign(static_cast<size_t>(RowCapacity) * Stride, 0);
  Den.assign(RowCapacity, 1);
  ObjRow.assign(Stride, 0);
  ObjDen = 1;
  Basis.assign(RowCapacity, 0);
  ColIsArtificial.assign(Stride - 1, false);
  for (unsigned A = 0; A != NumArtificials; ++A)
    ColIsArtificial[ArtBase + A] = true;

  unsigned SlackIdx = 0, ArtIdx = 0;
  for (unsigned R = 0; R != NumRows; ++R) {
    const LpConstraint &C = constraintAt(R);
    assert(C.Coeffs.size() == NumStructural && "constraint width mismatch");
    // Constraint semantics: Coeffs.x + Constant (kind) 0, rewritten as
    // Coeffs.x (kind) -Constant, normalized to a nonnegative RHS.
    Int Sign = RowSign[R];
    Int *Rw = row(R);
    for (unsigned V = 0; V != NumStructural; ++V)
      Rw[V] = checkedMul(Sign, C.Coeffs[V]);
    Rw[Stride - 1] = checkedMul(Sign, checkedNeg(C.Constant));
    if (C.Kind != LpConstraint::EQ) {
      // GE becomes Coeffs.x - s = rhs (slack coeff -1), LE gets +1;
      // row negation flips the slack sign too.
      Int SlackSign = (C.Kind == LpConstraint::GE) ? -1 : 1;
      Rw[SlackBase + SlackIdx] = checkedMul(Sign, SlackSign);
      if (!NeedsArtificial[R])
        Basis[R] = SlackBase + SlackIdx;
      ++SlackIdx;
    }
    if (NeedsArtificial[R]) {
      Rw[ArtBase + ArtIdx] = 1;
      Basis[R] = ArtBase + ArtIdx;
      ++ArtIdx;
    }
  }
}

void SimplexTableau::clearObjective() {
  std::fill(ObjRow.begin(), ObjRow.end(), 0);
  ObjDen = 1;
}

void SimplexTableau::gatherNonZeros(const Int *Source) {
  NonZeroScratch.clear();
  for (unsigned C = 0; C != Cols; ++C)
    if (Source[C] != 0)
      NonZeroScratch.push_back(C);
  if (Source[Stride - 1] != 0)
    NonZeroScratch.push_back(Stride - 1);
}

void SimplexTableau::normalizeRow(Int *Row, Int &RowDen) const {
  // Screen every entry against the current gcd G; only an entry that is
  // not a multiple of G pays for a gcd (and a new divisor).
  std::uint64_t G = static_cast<std::uint64_t>(RowDen);
  ExactDivisor Div(G);
  auto fold = [&](Int V) {
    std::uint64_t M = magnitude(V);
    if (Div.divides(M))
      return true;
    G = gcdMag(G, M);
    if (G == 1)
      return false;
    Div = ExactDivisor(G);
    return true;
  };
  for (unsigned C = 0; C != Cols; ++C)
    if (!fold(Row[C]))
      return;
  if (!fold(Row[Stride - 1]))
    return;
  for (unsigned C = 0; C != Cols; ++C)
    Row[C] = Div.divide(Row[C]);
  Row[Stride - 1] = Div.divide(Row[Stride - 1]);
  RowDen = Div.divide(RowDen);
}

void SimplexTableau::storeWide(Int *Row, Int &RowDen, Int128 D) {
  UInt128 G = UInt128(D);
  for (unsigned P = 0; P <= Cols && G != 1; ++P) {
    Int128 V = WideScratch[P == Cols ? Stride - 1 : P];
    if (V != 0)
      G = gcdMag128(G, magnitude(V));
  }
  const Int128 Divisor = static_cast<Int128>(G);
  auto narrow = [&](Int128 V) {
    V /= Divisor;
    if (V < INT64_MIN || V > INT64_MAX)
      tableauOverflow();
    return static_cast<Int>(V);
  };
  RowDen = narrow(D);
  for (unsigned P = 0; P <= Cols; ++P) {
    unsigned C = P == Cols ? Stride - 1 : P;
    Row[C] = narrow(WideScratch[C]);
  }
}

void SimplexTableau::eliminate(Int *Target, Int &TargetDen, const Int *Source,
                               Int SourceDen, unsigned Col) {
  // Target - (F / TargetDen) * (Source / SourceDen) over the common
  // denominator TargetDen * SourceDen, with the gcd G of F and
  // SourceDen cancelled: Target * Scale - Quot * Source over
  // TargetDen * Scale.
  const Int F = Target[Col];
  Int Quot = F, Scale = 1;
  if (SourceDen != 1) {
    Int G = static_cast<Int>(gcdMag(magnitude(F), SourceDen));
    Quot = F / G;
    Scale = SourceDen / G;
  }
  Int NewDen = TargetDen;
  if (Scale != 1) {
    if (__builtin_mul_overflow(TargetDen, Scale, &NewDen))
      return eliminateWide(Target, TargetDen, Source, Quot, Scale, 0, 0);
    Int Scaled;
    for (unsigned C = 0; C != Cols; ++C) {
      if (__builtin_mul_overflow(Target[C], Scale, &Scaled))
        return eliminateWide(Target, TargetDen, Source, Quot, Scale, C, 0);
      Target[C] = Scaled;
    }
    if (__builtin_mul_overflow(Target[Stride - 1], Scale, &Scaled))
      return eliminateWide(Target, TargetDen, Source, Quot, Scale, Cols, 0);
    Target[Stride - 1] = Scaled;
  }
  // Only the source row's nonzero columns change.
  for (unsigned I = 0, E = NonZeroScratch.size(); I != E; ++I) {
    unsigned C = NonZeroScratch[I];
    Int Prod, Diff;
    if (__builtin_mul_overflow(Quot, Source[C], &Prod) ||
        __builtin_sub_overflow(Target[C], Prod, &Diff))
      return eliminateWide(Target, TargetDen, Source, Quot, Scale, Cols + 1,
                           I);
    Target[C] = Diff;
  }
  if (Scale != 1) {
    TargetDen = NewDen;
    if (TargetDen > DenBound)
      normalizeRow(Target, TargetDen);
  }
}

void SimplexTableau::eliminateWide(Int *Target, Int &TargetDen,
                                   const Int *Source, Int Quot, Int Scale,
                                   unsigned Scaled, unsigned Subtracted) {
  WideScratch.assign(Stride, 0);
  for (unsigned P = 0; P <= Cols; ++P) {
    unsigned C = P == Cols ? Stride - 1 : P;
    WideScratch[C] = P < Scaled ? Int128(Target[C]) : Int128(Target[C]) * Scale;
  }
  for (unsigned I = Subtracted, E = NonZeroScratch.size(); I != E; ++I) {
    unsigned C = NonZeroScratch[I];
    WideScratch[C] -= Int128(Quot) * Source[C];
  }
  storeWide(Target, TargetDen, Int128(TargetDen) * Scale);
}

void SimplexTableau::priceOutBasis() {
  for (unsigned R = 0; R != Rows; ++R) {
    unsigned BV = Basis[R];
    if (ObjRow[BV] == 0)
      continue;
    const Int *Rw = row(R);
    gatherNonZeros(Rw);
    eliminate(ObjRow.data(), ObjDen, Rw, Den[R], BV);
  }
}

void SimplexTableau::pivot(unsigned PivotRow, unsigned PivotCol) {
  ++PivotCount;
  Int *PR = row(PivotRow);
  const Int Pivot = PR[PivotCol];
  assert(Pivot != 0 && "pivot on zero entry");
  // Dividing the row N / D by its pivot entry N[PivotCol] / D leaves
  // N / N[PivotCol]: the numerators stay (signs flipped for a negative
  // pivot) and |N[PivotCol]| becomes the denominator. Record the row's
  // sparsity pattern; every update below only walks those columns.
  gatherNonZeros(PR);
  if (Pivot < 0)
    for (unsigned C : NonZeroScratch)
      PR[C] = negated(PR[C]);
  Int &PivotDen = Den[PivotRow];
  PivotDen = Pivot < 0 ? negated(Pivot) : Pivot;
  if (PivotDen > DenBound)
    normalizeRow(PR, PivotDen);
  for (unsigned R = 0; R != Rows; ++R) {
    if (R == PivotRow)
      continue;
    Int *Rw = row(R);
    if (Rw[PivotCol] != 0)
      eliminate(Rw, Den[R], PR, PivotDen, PivotCol);
  }
  if (ObjRow[PivotCol] != 0)
    eliminate(ObjRow.data(), ObjDen, PR, PivotDen, PivotCol);
  Basis[PivotRow] = PivotCol;
}

SimplexTableau::Outcome SimplexTableau::minimize() {
  unsigned DegenerateStreak = 0;
  const unsigned BlandThreshold = 2 * (Rows + Cols) + 16;
  const bool Budgeted = budget::active();
  for (;;) {
    // The objective row shares one denominator, so reduced costs
    // compare by numerator.
    bool UseBland = DegenerateStreak > BlandThreshold;
    unsigned Entering = Cols;
    for (unsigned C = 0; C != Cols; ++C) {
      if (ObjRow[C] >= 0)
        continue;
      if (UseBland) {
        Entering = C; // Lowest index.
        break;
      }
      if (Entering == Cols || ObjRow[C] < ObjRow[Entering])
        Entering = C; // Most negative reduced cost.
    }
    if (Entering == Cols)
      return Outcome::Optimal;

    // Ratio test; Bland tie-break on the basic variable index. A row's
    // ratio rhs / entry has its denominator cancelled, so BestNum /
    // BestDen is compared by cross-multiplying numerators.
    unsigned Leaving = Rows;
    Int BestNum = 0, BestDen = 1;
    for (unsigned R = 0; R != Rows; ++R) {
      const Int *Rw = row(R);
      const Int Entry = Rw[Entering];
      if (Entry <= 0)
        continue;
      const Int Num = Rw[Stride - 1];
      if (Leaving != Rows) {
        Int128 Lhs = Int128(Num) * BestDen, Rhs = Int128(BestNum) * Entry;
        if (Lhs > Rhs || (Lhs == Rhs && Basis[R] > Basis[Leaving]))
          continue;
      }
      Leaving = R;
      BestNum = Num;
      BestDen = Entry;
    }
    if (Leaving == Rows)
      return Outcome::Unbounded;
    if (BestNum == 0)
      ++DegenerateStreak; // No objective progress: possible cycling.
    else
      DegenerateStreak = 0;
    if (!Budgeted)
      budget::skipPivot();
    else if (!budget::chargePivot() || budget::deadlineExpired())
      return Outcome::Budget;
    pivot(Leaving, Entering);
  }
}

SimplexTableau::Outcome SimplexTableau::solveTwoPhase(
    const IntVector &Objective) {
  // Recover the build() column partition: artificials are the trailing
  // flagged columns (solveTwoPhase runs before any warm growth).
  unsigned ArtBase = Cols;
  unsigned NumArtificials = 0;
  for (unsigned C = Cols; C != 0; --C) {
    if (!ColIsArtificial[C - 1])
      break;
    ArtBase = C - 1;
    ++NumArtificials;
  }

  // Phase 1: minimize the sum of artificials (skipped when none).
  if (NumArtificials != 0) {
    for (unsigned A = 0; A != NumArtificials; ++A)
      ObjRow[ArtBase + A] = 1;
    priceOutBasis();
    Outcome Phase1 = minimize();
    // The phase-1 objective is bounded below by construction, so the
    // only non-optimal outcome is an exhausted budget.
    if (Phase1 != Outcome::Optimal)
      return Outcome::Budget;
    if (ObjRow[Stride - 1] != 0)
      return Outcome::Infeasible;
  }

  // Drive any artificial variables out of the basis (degenerate rows).
  for (unsigned R = 0; R != Rows; ++R) {
    if (Basis[R] < ArtBase)
      continue;
    unsigned Entering = ArtBase;
    for (unsigned C = 0; C != ArtBase; ++C) {
      if (at(R, C) != 0) {
        Entering = C;
        break;
      }
    }
    if (Entering != ArtBase)
      pivot(R, Entering);
    // Otherwise the row is all-zero over real columns: redundant; its
    // artificial stays basic at value zero, which is harmless as long
    // as artificial columns can never re-enter (handled below).
  }

  // Phase 2: zero nonbasic artificial columns so no pivot rule can ever
  // select them again.
  for (unsigned R = 0; R != Rows; ++R)
    for (unsigned A = 0; A != NumArtificials; ++A)
      if (Basis[R] != ArtBase + A)
        at(R, ArtBase + A) = 0;

  return reoptimize(Objective);
}

SimplexTableau::Outcome SimplexTableau::reoptimize(const IntVector &Objective) {
  clearObjective();
  if (!Objective.empty()) {
    assert(Objective.size() == NumStructural && "objective width mismatch");
    for (unsigned V = 0; V != NumStructural; ++V)
      ObjRow[V] = Objective[V];
  }
  // Keep artificials non-entering: give them +1 reduced cost
  // pre-pricing; basic ones end up at zero, nonbasic ones keep +1.
  for (unsigned C = 0; C != Cols; ++C)
    if (ColIsArtificial[C])
      ObjRow[C] = 1;
  priceOutBasis();
  return minimize();
}

SimplexTableau::Outcome SimplexTableau::dualReoptimize() {
  unsigned DegenerateStreak = 0;
  const unsigned BlandThreshold = 2 * (Rows + Cols) + 16;
  // Hard safety valve on top of the anti-cycling rule: a warm caller
  // falls back to the exact cold solve when this trips.
  const unsigned MaxPivots = 400 + 20 * (Rows + Cols);
  unsigned Pivots = 0;
  const bool Budgeted = budget::active();
  for (;;) {
    bool UseBland = DegenerateStreak > BlandThreshold;
    // Leaving row: a primal-infeasible one. Default rule: most negative
    // right-hand side; Bland mode: smallest basic variable index.
    unsigned Leaving = Rows;
    for (unsigned R = 0; R != Rows; ++R) {
      if (rhs(R) >= 0)
        continue;
      if (Leaving == Rows) {
        Leaving = R;
        continue;
      }
      if (UseBland) {
        if (Basis[R] < Basis[Leaving])
          Leaving = R;
        continue;
      }
      // rhs(R) / Den[R] against rhs(Leaving) / Den[Leaving].
      Int128 Lhs = Int128(rhs(R)) * Den[Leaving];
      Int128 Rhs = Int128(rhs(Leaving)) * Den[R];
      if (Lhs < Rhs || (Lhs == Rhs && Basis[R] < Basis[Leaving]))
        Leaving = R;
    }
    if (Leaving == Rows)
      return Outcome::Optimal; // Primal feasible again, still dual feasible.

    // Entering column: dual ratio test over negative row entries,
    // minimizing ObjRow[C] / -row[C]; ties break toward the smallest
    // column index (together with Bland's leaving rule this is the
    // cycling-free dual rule). Artificial columns never re-enter. Both
    // rows' denominators are common to every candidate and cancel.
    const Int *Rw = row(Leaving);
    unsigned Entering = Cols;
    Int BestNum = 0;
    Int128 BestDen = 1;
    for (unsigned C = 0; C != Cols; ++C) {
      if (ColIsArtificial[C] || Rw[C] >= 0)
        continue;
      const Int Num = ObjRow[C];
      const Int128 Den = -Int128(Rw[C]);
      if (Entering == Cols || Num * BestDen < BestNum * Den) {
        Entering = C;
        BestNum = Num;
        BestDen = Den;
      }
    }
    if (Entering == Cols)
      return Outcome::Infeasible; // Dual unbounded: primal empty.

    if (ObjRow[Entering] == 0)
      ++DegenerateStreak;
    else
      DegenerateStreak = 0;
    if (++Pivots > MaxPivots)
      return Outcome::Budget;
    if (!Budgeted)
      budget::skipPivot();
    else if (!budget::chargePivot() || budget::deadlineExpired())
      return Outcome::Budget;
    pivot(Leaving, Entering);
  }
}

unsigned SimplexTableau::appendRowAndColumn() {
  assert(Rows < RowCapacity && Cols + 1 < Stride &&
         "tableau growth exceeds reserved capacity");
  unsigned NewCol = Cols++;
  unsigned NewRow = Rows++;
  // The cells were zeroed at build() and pivot loops only touch active
  // columns, so the fresh row and column are already all-zero.
  Basis[NewRow] = NewCol;
  ColIsArtificial[NewCol] = false;
  return NewCol;
}

void SimplexTableau::storeAppendedRow(unsigned NewCol) {
  Int *Rw = row(Rows - 1);
  for (unsigned C = 0; C != NewCol; ++C)
    Rw[C] = DenseScratch[C];
  Rw[NewCol] = DenseDen;
  Rw[Stride - 1] = DenseScratch[Stride - 1];
  Den[Rows - 1] = DenseDen;
}

void SimplexTableau::reduceAgainstBasis() {
  // Eliminate basic variables: basic columns are unit vectors, so each
  // elimination only touches nonbasic columns and cannot reintroduce an
  // earlier basic variable.
  for (unsigned R = 0; R != Rows; ++R) {
    unsigned BV = Basis[R];
    if (DenseScratch[BV] == 0)
      continue;
    const Int *Rw = row(R);
    gatherNonZeros(Rw);
    eliminate(DenseScratch.data(), DenseDen, Rw, Den[R], BV);
  }
}

unsigned SimplexTableau::addBoundRow(unsigned Var, bool Upper, Int Bound) {
  assert(Var < NumStructural && "bound on a non-structural variable");
  DenseScratch.assign(Stride, 0);
  DenseDen = 1;
  // Upper:  x + s =  Bound;  lower:  -x + s = -Bound  (slack s >= 0).
  DenseScratch[Var] = Upper ? 1 : -1;
  DenseScratch[Stride - 1] = Upper ? Bound : checkedNeg(Bound);
  reduceAgainstBasis();
  unsigned SlackCol = appendRowAndColumn();
  storeAppendedRow(SlackCol);
  // The new slack is basic with zero reduced cost: reduced costs of all
  // other columns are unchanged by a row whose dual value is zero.
  return SlackCol;
}

void SimplexTableau::tightenBoundRow(unsigned SlackCol, Int Delta) {
  // The slack's column is B^-1 e_row for the bound row, so shifting the
  // row's original right-hand side by Delta shifts the current
  // right-hand sides by Delta * column(SlackCol) (same row denominator).
  if (Delta == 0)
    return;
  for (unsigned R = 0; R != Rows; ++R) {
    Int *Rw = row(R);
    const Int Entry = Rw[SlackCol];
    if (Entry == 0)
      continue;
    Int Prod, Sum;
    if (!__builtin_mul_overflow(Delta, Entry, &Prod) &&
        !__builtin_add_overflow(Rw[Stride - 1], Prod, &Sum)) {
      Rw[Stride - 1] = Sum;
      continue;
    }
    WideScratch.assign(Stride, 0);
    for (unsigned C = 0; C != Cols; ++C)
      WideScratch[C] = Rw[C];
    WideScratch[Stride - 1] = Int128(Rw[Stride - 1]) + Int128(Delta) * Entry;
    storeWide(Rw, Den[R], Den[R]);
  }
}

SimplexTableau::Outcome SimplexTableau::addPinEquality(const IntVector &Coeffs,
                                                       Int Rhs) {
  assert(Coeffs.size() == NumStructural && "pin row width mismatch");
  DenseScratch.assign(Stride, 0);
  DenseDen = 1;
  for (unsigned V = 0; V != NumStructural; ++V)
    DenseScratch[V] = Coeffs[V];
  DenseScratch[Stride - 1] = Rhs;
  reduceAgainstBasis();
  // Normalize so the fresh artificial starts nonnegative.
  if (DenseScratch[Stride - 1] < 0)
    for (Int &V : DenseScratch)
      V = negated(V);
  unsigned ArtCol = appendRowAndColumn();
  storeAppendedRow(ArtCol);
  ColIsArtificial[ArtCol] = true;

  // Mini phase 1 from the current feasible basis: minimize the sum of
  // artificials (the fresh one plus any basic-at-zero leftovers).
  clearObjective();
  for (unsigned C = 0; C != Cols; ++C)
    if (ColIsArtificial[C])
      ObjRow[C] = 1;
  priceOutBasis();
  Outcome Phase = minimize();
  if (Phase != Outcome::Optimal)
    return Outcome::Budget; // Bounded below: only the budget can stop it.
  if (ObjRow[Stride - 1] != 0)
    return Outcome::Infeasible;

  // Drive the artificial out of the basis if it is still there.
  for (unsigned R = 0; R != Rows; ++R) {
    if (!ColIsArtificial[Basis[R]])
      continue;
    unsigned Entering = Cols;
    const Int *RowPtr = row(R);
    for (unsigned C = 0; C != Cols; ++C) {
      if (!ColIsArtificial[C] && RowPtr[C] != 0) {
        Entering = C;
        break;
      }
    }
    if (Entering != Cols)
      pivot(R, Entering);
    // Otherwise the pin row is redundant; its artificial stays basic at
    // zero, excluded from re-entry like every artificial column.
  }

  // Zero nonbasic artificial columns (same discipline as phase 2).
  for (unsigned C = 0; C != Cols; ++C) {
    if (!ColIsArtificial[C])
      continue;
    for (unsigned R = 0; R != Rows; ++R)
      if (Basis[R] != C)
        at(R, C) = 0;
  }
  return Outcome::Optimal;
}

void SimplexTableau::extractPoint(std::vector<Rational> &Point) const {
  Point.assign(NumStructural, Rational(0));
  for (unsigned R = 0; R != Rows; ++R)
    if (Basis[R] < NumStructural)
      Point[Basis[R]] = Rational(rhs(R), Den[R]);
}
