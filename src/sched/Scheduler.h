//===- sched/Scheduler.h - Influenced scheduling construction ---*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Algorithm 1: iterative Pluto-style construction of scheduling
/// dimensions, outermost first, each dimension one mixed ILP combining
/// progression, validity, proximity and injected influence constraints.
/// On failure, constraint sets are deactivated in priority order:
///   1. drop progression when influence asks for extra dimensions,
///   2. move to the next sibling scenario of the influence tree,
///   3. drop already-carried dependences (ending the permutable band),
///   4. backtrack to an ancestor's sibling, withdrawing dimensions,
///   5. separate strongly connected components with a scalar dimension,
/// and ultimately the whole tree is abandoned and the scheduler runs as
/// a plain polyhedral scheduler.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SCHED_SCHEDULER_H
#define POLYINJECT_SCHED_SCHEDULER_H

#include "sched/ConstraintBuilders.h"

namespace pinj {

/// Counters describing one scheduling run; bench_backtracking reports
/// them to substantiate the paper's "only few activations of the
/// backtracking" observation.
struct SchedulerStats {
  unsigned IlpSolves = 0;
  unsigned IlpFailures = 0;
  unsigned SiblingMoves = 0;      ///< Fallback 2 activations.
  unsigned BandBreaks = 0;        ///< Fallback 3 activations.
  unsigned AncestorBacktracks = 0;///< Fallback 4 activations.
  unsigned SccCuts = 0;           ///< Fallback 5 activations.
  unsigned ProgressionDrops = 0;  ///< Fallback 1 activations.
  unsigned MetaRejections = 0;    ///< Parallel-required meta failures.
  unsigned FeautrierDims = 0;     ///< Feautrier-style dimensions taken.
  bool TreeAbandoned = false;
  unsigned IlpNodes = 0;          ///< Total branch-and-bound nodes.

  /// Fallback activations of every kind, Feautrier dimensions included.
  unsigned fallbacks() const {
    return ProgressionDrops + SiblingMoves + BandBreaks + AncestorBacktracks +
           SccCuts + FeautrierDims;
  }
};

/// The scheduling outcome. Sched always holds a valid schedule: on any
/// recoverable failure (solver budget exhausted, dimension limit,
/// construction stuck, arithmetic overflow, injected fault) the scheduler
/// falls back to the original program order and records why in Outcome.
struct SchedulerResult {
  Schedule Sched;
  SchedulerStats Stats;
  /// Why the construction did not complete normally; ok() on success.
  Status Outcome;
  /// True when Sched is the original-program-order fallback rather than
  /// a constructed schedule.
  bool FellBackToOriginal = false;
  /// The influence tree leaf whose scenario the schedule realizes, or
  /// null when no tree was given or the tree was abandoned.
  const InfluenceNode *ReachedLeaf = nullptr;

  bool influenced() const { return ReachedLeaf != nullptr; }
};

/// Runs the influenced scheduling construction on \p K. \p Tree may be
/// null (plain polyhedral scheduling, the paper's "isl" reference
/// configuration when Options.SerializeSccs is set). The construction and
/// the plain rerun after an abandoned tree read \p Deps, K's relations with
/// IncludeInput = Options.ProximityIncludesInput; when null, the run
/// computes them inside its budget scope and recovery boundary.
SchedulerResult
scheduleKernel(const Kernel &K, const SchedulerOptions &Options,
               const InfluenceTree *Tree = nullptr,
               const std::vector<DependenceRelation> *Deps = nullptr);

} // namespace pinj

#endif // POLYINJECT_SCHED_SCHEDULER_H
