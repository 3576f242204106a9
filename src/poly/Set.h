//===- poly/Set.h - Affine integer sets -------------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conjunctions of affine constraints over (dims, params, 1) — the
/// iteration domains and dependence polyhedra of the paper's Section III.
///
/// Semantics note: sets live in the nonnegative orthant (all dims and
/// params are implicitly >= 0). Iteration domains in the operator IR
/// always satisfy 0 <= i, and parameters are sizes, so this loses no
/// generality in this project and lets the exact simplex be used
/// directly. Emptiness is checked over the rationals; access functions in
/// the AI/DL operator domain have unit coefficients, for which rational
/// and integer feasibility coincide.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_POLY_SET_H
#define POLYINJECT_POLY_SET_H

#include "math/Matrix.h"

#include <string>

namespace pinj {

/// Identifies the shape of a set's space.
struct SetSpace {
  unsigned NumDims = 0;
  unsigned NumParams = 0;

  /// Width of a constraint row: dims, params, then the constant.
  unsigned width() const { return NumDims + NumParams + 1; }

  bool operator==(const SetSpace &O) const {
    return NumDims == O.NumDims && NumParams == O.NumParams;
  }
};

/// One affine constraint: Row . (dims, params, 1) >= 0 or == 0.
struct SetConstraint {
  IntVector Row;
  bool IsEquality = false;
};

/// A conjunction of affine constraints (a convex polyhedron intersected
/// with the nonnegative orthant).
class AffineSet {
public:
  AffineSet() = default;
  explicit AffineSet(SetSpace Space) : Space(Space) {}

  const SetSpace &space() const { return Space; }
  const std::vector<SetConstraint> &constraints() const {
    return Constraints;
  }

  /// Adds Row . (dims, params, 1) >= 0.
  void addGe(IntVector Row);
  /// Adds Row . (dims, params, 1) == 0.
  void addEq(IntVector Row);
  /// Adds Lo <= dims[Dim] < Hi, i.e. a rectangular extent.
  void addDimBounds(unsigned Dim, Int Lo, Int Hi);

  /// \returns true if the set has no rational point (conservative
  /// emptiness; see the file comment).
  bool isEmpty() const;

  /// \returns true if Expr >= Bound on every point of the set (vacuously
  /// true on an empty set).
  bool isAlwaysAtLeast(const IntVector &Expr, Int Bound) const;

  /// \returns true if Expr == 0 on every point of the set.
  bool isAlwaysZero(const IntVector &Expr) const;

  std::string str() const;

private:
  SetSpace Space;
  std::vector<SetConstraint> Constraints;
};

} // namespace pinj

#endif // POLYINJECT_POLY_SET_H
