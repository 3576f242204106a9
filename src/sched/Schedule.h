//===- sched/Schedule.h - Multidimensional affine schedules -----*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler's result: one transformation matrix T_S per statement
/// (paper Section III-B), mapping (iters, params, 1) to a shared
/// multidimensional logical date, plus per-dimension metadata (parallel,
/// scalar, influenced, vector-marked) consumed by the GPU mapping and
/// vectorization passes.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SCHED_SCHEDULE_H
#define POLYINJECT_SCHED_SCHEDULE_H

#include "ir/Kernel.h"
#include "poly/Dependence.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pinj {

/// Metadata for one scheduling dimension, shared by all statements.
struct DimInfo {
  bool IsScalar = false;   ///< Ordering dimension inserted between SCCs.
  /// First dimension of a permutable band: every dimension of a band
  /// weakly satisfies the same relation set, so the band's loops can be
  /// permuted or tiled (the paper's "permutability extraction").
  bool BandStart = false;
  bool IsParallel = false; ///< Zero reuse distance on all pending deps.
  /// Parallel up to intra-block synchronization: any nonzero schedule
  /// difference at this dimension belongs to an inter-statement
  /// dependence (producer/consumer), which a fused GPU kernel resolves
  /// with guards plus __syncthreads within a block. Such dimensions may
  /// be mapped to threads but never split across blocks.
  bool ThreadParallel = false;
  bool Influenced = false; ///< An influence tree node constrained it.
  /// Statements whose innermost loop at this dimension is prepared for
  /// explicit vector types (paper Section V goal (i)).
  std::vector<unsigned> VectorStmts;
  /// Vector lane count (2 or 4) when VectorStmts is nonempty.
  unsigned VectorWidth = 0;

  bool isVectorFor(unsigned Stmt) const {
    for (unsigned S : VectorStmts)
      if (S == Stmt)
        return true;
    return false;
  }

  bool operator==(const DimInfo &O) const {
    return IsScalar == O.IsScalar && BandStart == O.BandStart &&
           IsParallel == O.IsParallel && ThreadParallel == O.ThreadParallel &&
           Influenced == O.Influenced && VectorStmts == O.VectorStmts &&
           VectorWidth == O.VectorWidth;
  }
};

/// A complete schedule for a kernel.
struct Schedule {
  /// One matrix per statement; row d is scheduling dimension d over
  /// (iters, params, 1). All matrices have the same number of rows.
  std::vector<IntMatrix> Transforms;
  std::vector<DimInfo> Dims;

  unsigned numDims() const { return Dims.size(); }

  /// The iterator-only part H_S of statement \p Stmt's matrix (paper
  /// Section IV-A3 decomposition theta = H i + G p + f).
  IntMatrix iteratorPart(const Kernel &K, unsigned Stmt) const;

  /// Evaluates the logical date of iteration \p Iters of \p Stmt with
  /// parameter values \p Params.
  IntVector apply(const Kernel &K, unsigned Stmt, const IntVector &Iters,
                  const IntVector &Params) const;

  /// The schedule-difference expression of dependence \p D at dimension
  /// \p Dim: phi_T(t) - phi_S(s) as a row over D.Rel's space. Used for
  /// satisfaction and parallelism tests.
  IntVector differenceExpr(const Kernel &K, const DependenceRelation &D,
                           unsigned Dim) const;

  /// True if \p D is strongly satisfied at \p Dim: the difference is
  /// >= 1 on every point of the relation.
  bool stronglySatisfiedAt(const Kernel &K, const DependenceRelation &D,
                           unsigned Dim) const;

  std::string str(const Kernel &K) const;

  bool operator==(const Schedule &O) const {
    return Transforms == O.Transforms && Dims == O.Dims;
  }

  /// True when this schedule is structurally compatible with \p K: one
  /// transform per statement, every transform has numDims() rows of the
  /// statement's affine width. Deserialized schedules (e.g. from the
  /// compilation cache) must pass this before being applied.
  bool compatibleWith(const Kernel &K) const;
};

/// Serializes \p S to a self-describing, line-based text form (version
/// header first) suitable for the on-disk schedule cache. The encoding
/// is canonical: equal schedules produce byte-identical text.
std::string serializeSchedule(const Schedule &S);

/// Parses text produced by serializeSchedule. \returns nullopt and sets
/// \p Error on any malformed, truncated or version-mismatched input —
/// corrupt cache entries must degrade to a miss, never crash.
std::optional<Schedule> deserializeSchedule(const std::string &Text,
                                            std::string &Error);

/// The carried-relation walk of the scheduler, annotateParallelism and the
/// vectorizer visits dimensions outermost first; \p Carried flags each
/// relation of \p Deps an earlier dimension strongly satisfies.
/// \returns {IsParallel, ThreadParallel} of dimension \p D (see DimInfo)
/// over the validity relations not yet carried.
std::pair<bool, bool>
dimParallelism(const Kernel &K, const Schedule &S,
               const std::vector<DependenceRelation> &Deps,
               const std::vector<bool> &Carried, unsigned D);

/// Advances the walk past dimension \p D.
void markCarried(const Kernel &K, const Schedule &S,
                 const std::vector<DependenceRelation> &Deps, unsigned D,
                 std::vector<bool> &Carried);

/// Runs the walk over a schedule built outside the scheduler (the
/// TVM-proxy manual schedules, the original program order).
void annotateParallelism(const Kernel &K, Schedule &S);

/// The schedule encoding the original program order (the classic 2d+1
/// form built from each statement's OrigBeta interleaving vector). It is
/// valid by construction — dependences are computed from this very
/// order — so it serves as the last-resort fallback when scheduling
/// fails in a recoverable way.
Schedule originalSchedule(const Kernel &K);

} // namespace pinj

#endif // POLYINJECT_SCHED_SCHEDULE_H
