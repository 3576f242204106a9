//===- lp/Reference.h - Reference (slow) exact solvers ----------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textbook solver stack preserved verbatim as a differential
/// oracle: dense vector-of-vectors tableau of 128-bit rationals (not the
/// production solver's 64-bit integer rows), full-problem copies at every
/// branch-and-bound node, recursion instead of a worklist, no warm
/// starts, a from-scratch phase 1 at every lexicographic level. The
/// production solvers in Simplex/Ilp/LexMin must match it on status,
/// value, and point; tests/lp_perf_test.cpp and bench/bench_lp.cpp
/// enforce that on random and scheduler-derived problems.
///
/// The reference path charges no budgets, bumps no metrics, and hits no
/// fail-points: it is an oracle, not a production code path.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_REFERENCE_H
#define POLYINJECT_LP_REFERENCE_H

#include "lp/LexMin.h"

namespace pinj {

/// Two-phase primal simplex, original implementation. When \p Pivots is
/// given it receives the number of pivots the solve made (an oracle-only
/// tally: tests compare it with the production pivot count).
LpResult referenceSolveLp(const LpProblem &Problem,
                          unsigned *Pivots = nullptr);

/// Recursive branch and bound over referenceSolveLp; \p Pivots receives
/// the pivots of all its node solves.
IlpResult referenceSolveIlp(const IlpProblem &Problem,
                            unsigned *Pivots = nullptr);

/// Level-by-level lexicographic minimization over referenceSolveIlp;
/// \p Pivots receives the pivots of all its levels.
IlpResult referenceSolveLexMin(IlpProblem Problem,
                               const std::vector<LexObjective> &Objectives,
                               unsigned *Pivots = nullptr);

} // namespace pinj

#endif // POLYINJECT_LP_REFERENCE_H
