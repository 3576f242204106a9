//===- math/LinearAlgebra.h - Exact linear algebra --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact integer linear algebra used by the scheduler's progression
/// constraint builder (paper Section IV-A3): rank and a nullspace basis
/// (the orthogonal complement of a schedule's row space, the H-perp of
/// paper Eq. (4)), both by Gaussian elimination over rationals.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_MATH_LINEARALGEBRA_H
#define POLYINJECT_MATH_LINEARALGEBRA_H

#include "math/Matrix.h"

namespace pinj {

/// \returns the rank of \p M over the rationals.
unsigned matrixRank(const IntMatrix &M);

/// Computes an integer basis of the nullspace of \p M (all vectors v with
/// M v = 0). Each basis vector is a row of the result, normalized by gcd.
/// Since nullspace(M) is the orthogonal complement of rowspace(M), this is
/// exactly the H-perp construction of paper Eq. (4).
IntMatrix nullspaceBasis(const IntMatrix &M);

} // namespace pinj

#endif // POLYINJECT_MATH_LINEARALGEBRA_H
