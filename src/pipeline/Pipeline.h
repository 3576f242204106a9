//===- pipeline/Pipeline.h - End-to-end operator pipeline -------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the public API: runs one fused operator through the four
/// configurations the paper compares —
///   isl   : plain polyhedral scheduling (reference configuration),
///   tvm   : the manual-schedule proxy (per-statement launches),
///   novec : influenced scheduling, explicit vectorization disabled,
///   infl  : influenced scheduling with explicit vector types —
/// producing schedules, CUDA-like code and simulated execution times.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_PIPELINE_PIPELINE_H
#define POLYINJECT_PIPELINE_PIPELINE_H

#include "baselines/TvmProxy.h"
#include "codegen/Ast.h"
#include "influence/TreeBuilder.h"
#include "obs/Report.h"
#include "sched/Scheduler.h"

#include <memory>

namespace pinj {

struct PipelineOptions;

namespace target {
class TargetModel;
}

/// The scheduling artifacts one operator compile produces, in the form
/// the compilation cache stores and replays: the three per-configuration
/// schedules plus the two paper flags derived while scheduling. A cache
/// hit substitutes these for the scheduling phase; simulation always
/// runs.
struct CachedCompilation {
  Schedule Isl;
  Schedule Novec;
  Schedule Infl;
  bool Influenced = false;
  bool VecEligible = false;
};

/// The pipeline-side cache interface. Implemented by
/// service::ScheduleCache (fingerprint-keyed LRU with optional disk
/// backing); defined here so pipeline/ stays below service/. Both calls
/// must be thread-safe: the batch compiler invokes them from concurrent
/// workers.
class CompilationCacheHook {
public:
  virtual ~CompilationCacheHook() = default;

  /// \returns true and fills \p Out when a cached compilation exists
  /// for \p K under \p Options.
  virtual bool lookup(const Kernel &K, const PipelineOptions &Options,
                      CachedCompilation &Out) = 0;

  /// Offers a freshly computed compilation for caching. Implementations
  /// may decline (e.g. capacity 0); the pipeline only offers
  /// degradation-free results.
  virtual void store(const Kernel &K, const PipelineOptions &Options,
                     const CachedCompilation &Entry) = 0;
};

/// The configuration an autotuning hook chose for one operator, as the
/// pipeline reports it (schedule results carry it into the stats table
/// and the JSON sidecar).
struct TunedConfig {
  /// Canonical candidate encoding (tune/SearchSpace.h), or "baseline"
  /// when the paper-default options won the search.
  std::string Encoding;
  /// The winner's simulated infl-configuration kernel time.
  double PredictedTimeUs = 0;
  /// The config was replayed from the tuning database; no search ran.
  bool FromDb = false;
  /// The search strategy that produced the entry ("exhaustive",
  /// "greedy", "anneal").
  std::string Strategy;
};

/// The pipeline-side autotuning interface, the analogue of
/// CompilationCacheHook one phase earlier: consulted before anything
/// else runs, it may rewrite the pipeline tunables for this operator.
/// Implemented by tune::Autotuner (search over the simulated cost
/// model, persisted in a tuning database); defined here so pipeline/
/// stays below tune/. Must be thread-safe: the batch compiler invokes
/// it from concurrent workers.
class TuningHook {
public:
  virtual ~TuningHook() = default;

  /// Chooses tuned options for \p K. \p Tuned enters as a copy of the
  /// pipeline options with the Tuner/Sink hooks cleared; on a true
  /// return the pipeline runs \p K under the (possibly rewritten)
  /// \p Tuned and reports \p Out. Returning false runs the operator
  /// unchanged with no tuning record.
  virtual bool tune(const Kernel &K, PipelineOptions &Tuned,
                    TunedConfig &Out) = 0;
};

/// All pipeline tunables in one place.
struct PipelineOptions {
  SchedulerOptions Sched;
  InfluenceOptions Influence;
  GpuMappingOptions Mapping;
  GpuModel Gpu;
  /// The backend target that scores every configuration (src/target/).
  /// Null means the built-in GPU analytic backend over `Gpu` — the
  /// default, and bit-identical to the pre-target-subsystem path; code
  /// that mutates `Gpu` directly keeps working unchanged. When set,
  /// simulation, the tvm proxy, the tuner's evaluator and the options
  /// fingerprint all follow it (and `Gpu` is ignored unless the target
  /// is itself GPU-analytic). Shared const: safe across the batch
  /// compiler's and daemon's worker pools.
  std::shared_ptr<const target::TargetModel> Target;
  /// Execute original vs scheduled order on real buffers and compare
  /// (slow; meant for tests and small shapes).
  bool Validate = false;
  /// Whole-operator resource limits, installed around everything
  /// runOperator does (all four configurations plus validation). WallMs
  /// acts as the operator deadline: once it expires, remaining
  /// configurations are skipped and recorded as degradations. Nested
  /// inside it, Sched.Budget still applies per scheduling run.
  SolverBudget Budget;
  /// When set, runOperator appends one record per operator here (the
  /// JSON metrics sidecar; see obs/Report.h). Not consulted for the
  /// cache key (it does not affect the compilation result).
  obs::ReportSink *Sink = nullptr;
  /// When set, runOperator looks up the operator before scheduling and
  /// replays the cached schedules on a hit (simulation still runs);
  /// degradation-free misses are stored back. Not part of the cache key.
  CompilationCacheHook *Cache = nullptr;
  /// When set, runOperator consults the hook first and runs the
  /// operator under the tuned options it chooses (the cache, if any,
  /// then keys on the tuned options). Not part of the cache key.
  TuningHook *Tuner = nullptr;
};

/// Result of one configuration of one operator.
struct ConfigResult {
  ConfigResult() = default;
  /// \p S at full fidelity, not yet simulated.
  explicit ConfigResult(Schedule S) : Sched(std::move(S)) {}

  Schedule Sched;
  KernelSim Sim;
  double TimeUs = 0;
  SchedulerStats Stats;
  /// Why this configuration did not run at full fidelity; ok() when it
  /// did. Details of what was substituted are in
  /// OperatorReport::Degradations.
  Status Outcome;
  /// The operator deadline expired before this configuration ran: Sched
  /// holds its fallback, and nothing was simulated.
  bool Skipped = false;
  /// Pipeline metrics delta attributed to this configuration (isl:
  /// reference scheduling + simulation; novec: influenced scheduling +
  /// simulation; infl: vector finalization + simulation).
  obs::MetricsSnapshot Metrics;
};

/// One degradation taken by runOperator. The ladder: a failed infl
/// configuration degrades to the novec schedule, a failed novec to the
/// isl reference schedule, a failed isl to the original program order —
/// so every configuration always carries a valid schedule.
struct DegradationEvent {
  std::string Config; ///< "isl", "novec", "infl", "tvm", "validate", ...
  std::string Site;   ///< Originating site ("lp.simplex", a fail-point).
  StatusCode Code = StatusCode::Internal;
  std::string Detail; ///< Human-readable explanation.
};

/// The paper's per-operator measurements.
struct OperatorReport {
  std::string Name;
  /// Stable request id of this compilation (obs/Journal.h): allocated at
  /// runOperator entry (or pre-assigned by the batch compiler) and
  /// stamped on every journal event, trace span, and the report sidecar,
  /// so the three artifacts are joinable offline.
  std::string RequestId;
  ConfigResult Isl;
  ConfigResult Novec;
  ConfigResult Infl;
  TvmProxyResult Tvm;
  /// Our influence changed the schedule relative to isl's solution
  /// (the paper's "infl" operator count).
  bool Influenced = false;
  /// The influenced schedule is eligible for explicit load/store
  /// vectorization (the paper's "vec" operator count).
  bool VecEligible = false;
  /// Set when Validate was requested and every schedule matched the
  /// reference execution.
  bool Validated = false;
  /// Every degradation taken while producing this report, in order.
  /// Empty on a fully healthy run.
  std::vector<DegradationEvent> Degradations;
  /// The scheduling phase was skipped because the compilation cache
  /// already held this operator's schedules (see PipelineOptions::Cache).
  bool CacheHit = false;
  /// A TuningHook chose the options this report was produced under;
  /// Tuning records what it picked.
  bool Tuned = false;
  TunedConfig Tuning;

  bool degraded() const { return !Degradations.empty(); }
  /// Whole-operator pipeline metrics delta (covers all configurations,
  /// the tvm proxy and validation).
  obs::MetricsSnapshot Metrics;
};

/// Runs the full pipeline on \p K.
OperatorReport runOperator(const Kernel &K, const PipelineOptions &Options);

/// The solver work behind one scheduleInflConfig call, for callers that
/// reuse its outcome under other scheduler budgets (tune/Evaluator.h).
struct InflScheduleWork {
  /// The largest charge of any one scheduleKernel run: the unit
  /// SchedulerOptions::Budget caps. Pivots are complete only when a
  /// budget scope was active throughout (see budget::threadCharges).
  SolverWork MaxRun;
  /// Some budget tripped: a run's own Sched.Budget, Options.Budget or a
  /// scope the caller installed.
  bool Tripped = false;
};

/// The infl configuration's schedule from runOperator's own degradation
/// ladder (isl is scheduled only if the influenced schedule is unusable),
/// for the autotuner to score. \returns false unless \p Out is what an
/// un-degraded runOperator simulates: the isl fallback degraded, the
/// vectorizer failed, the deadline skipped infl, the schedule is not
/// simulatable, or any solver budget tripped. \p Tree, when given, is
/// buildInfluenceTree(K, Options.Influence), built by the caller; \p Work,
/// when given, receives the call's solver work.
bool scheduleInflConfig(const Kernel &K, const PipelineOptions &Options,
                        Schedule &Out, const InfluenceTree *Tree = nullptr,
                        InflScheduleWork *Work = nullptr);

/// Schedules \p K under its influence tree (no vector-mark pass).
/// Exposed for examples that want the intermediate artifacts.
SchedulerResult scheduleInfluenced(const Kernel &K,
                                   const PipelineOptions &Options);

/// The CUDA-like rendering of a scheduled kernel.
std::string renderCuda(const Kernel &K, const Schedule &S,
                       const GpuMappingOptions &Mapping);

/// True if the backend can generate and simulate \p S on \p K:
/// unit/constant rows only, and statements sharing a loop dimension
/// agree on its extent. runOperator's degradation ladder tests it.
bool isSimulatableSchedule(const Kernel &K, const Schedule &S);

/// A compact per-configuration stats table for one operator report:
/// time, transactions, ILP solves/nodes, simplex pivots, fallbacks.
std::string printStatsTable(const OperatorReport &R);

/// Converts a report to the sidecar record shape (see obs/Report.h).
obs::OperatorRecord toSinkRecord(const OperatorReport &R);

} // namespace pinj

#endif // POLYINJECT_PIPELINE_PIPELINE_H
