//===- service/BatchCompiler.h - Parallel operator compilation --*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation service's batch front end: a fixed-size worker pool
/// that runs `runOperator` on N operators concurrently and merges the
/// results deterministically.
///
/// Concurrency model: workers pull job indices from one atomic counter
/// (support/Parallel.h parallelFor); each worker thread runs whole
/// operators, so the solver-budget machinery (thread_local scope stack
/// in lp/Budget.cpp) and the degradation ladder isolate jobs exactly as
/// in serial operation. The shared obs::MetricsRegistry is thread-safe
/// (atomic counters), and the optional cache hook is required to be
/// thread-safe (service::ScheduleCache is).
///
/// Determinism guarantee: results land in a pre-sized vector at their
/// submission index, and sink records are appended in submission order
/// after the pool joins — so for any worker count, the reports and the
/// sidecar are ordered exactly as submitted. Per-operator *content* is
/// deterministic because every pipeline phase is (analytic simulation,
/// no randomness); only the global metrics interleaving varies with
/// worker count, which is why BatchResult carries no cross-operator
/// metrics deltas.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SERVICE_BATCHCOMPILER_H
#define POLYINJECT_SERVICE_BATCHCOMPILER_H

#include "pipeline/Pipeline.h"

#include <cstddef>
#include <string>
#include <vector>

namespace pinj {
namespace service {

/// One unit of work: a kernel compiled under the shared batch options.
struct BatchJob {
  Kernel K;
};

/// The merged outcome of one batch run.
struct BatchResult {
  /// One report per job, at the job's submission index.
  std::vector<OperatorReport> Reports;

  std::size_t hits() const;
  std::size_t degraded() const;
};

/// Compiles operators with a fixed-size worker pool.
class BatchCompiler {
public:
  /// \p Options applies to every job. Options.Sink and Options.Cache may
  /// be set: the sink is *not* handed to workers (records are derived
  /// and appended in submission order after the join); the cache hook is
  /// shared by all workers and must be thread-safe.
  /// \p Jobs is clamped to [1, 64]; 1 degenerates to serial compilation
  /// on the calling thread.
  BatchCompiler(PipelineOptions Options, unsigned Jobs);

  unsigned jobs() const { return NumWorkers; }

  /// Runs every job to completion and returns the merged result. A job
  /// that throws is converted into an empty report carrying a
  /// "service.batch" degradation event instead of tearing down the
  /// batch. Safe to call repeatedly (each call spins up a fresh pool).
  BatchResult run(const std::vector<BatchJob> &Jobs);

private:
  PipelineOptions Options;
  unsigned NumWorkers;
};

} // namespace service
} // namespace pinj

#endif // POLYINJECT_SERVICE_BATCHCOMPILER_H
