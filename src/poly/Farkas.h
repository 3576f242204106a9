//===- poly/Farkas.h - Affine form of Farkas' lemma -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linearization of "psi(x) >= 0 for all x in P" via the affine form of
/// Farkas' lemma (paper Section IV-A1): psi is nonnegative over the
/// polyhedron P iff psi == lambda_0 + sum_k lambda_k * row_k(P) with all
/// lambda >= 0. Here psi's coefficients are themselves linear forms over
/// the scheduler's ILP variables, so the identity becomes a set of linear
/// constraints tying scheduling coefficients to fresh multiplier
/// variables. Multipliers stay rational (non-integer) in the MILP.
///
/// Two reductions keep the block small and phase 1 short. Equalities of
/// P with a unit coefficient are Gauss-eliminated first. Then, for each
/// dimension or parameter column, one box bound that touches only that
/// column with a +-1 coefficient (preferably x >= 0) has its multiplier
/// substituted out through the column's identity: the equality becomes
/// "that multiplier >= 0", a >= row. For the scheduler's forms its
/// constant is zero, so the simplex starts it with a basic slack
/// (lp/Tableau.h).
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_POLY_FARKAS_H
#define POLYINJECT_POLY_FARKAS_H

#include "lp/Builder.h"
#include "poly/Set.h"

namespace pinj {

/// An affine form over a set's space whose coefficients are linear forms
/// over ILP variables: psi(x) = sum_j Cols[j] * x_j + Cols[last], with
/// x ranging over (dims, params) and Cols[last] the constant part.
struct VarAffineForm {
  std::vector<SparseForm> Cols;

  explicit VarAffineForm(const SetSpace &Space) : Cols(Space.width()) {}

  SparseForm &dimCoeff(unsigned Dim) { return Cols[Dim]; }
  SparseForm &constCoeff() { return Cols.back(); }
};

/// Emits into \p B the Farkas constraints enforcing
/// "Psi(x) >= 0 for all x in P" (P nonempty), allocating fresh
/// multiplier variables.
void addFarkasNonNegative(IlpBuilder &B, const AffineSet &P,
                          const VarAffineForm &Psi);

} // namespace pinj

#endif // POLYINJECT_POLY_FARKAS_H
