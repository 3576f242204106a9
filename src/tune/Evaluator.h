//===- tune/Evaluator.h - Parallel candidate evaluation ---------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scores tuning candidates by the simulated infl-configuration kernel
/// time. Each evaluation schedules the infl configuration through the
/// pipeline's own degradation ladder (scheduleInflConfig in
/// pipeline/Pipeline.h), then maps it and runs the target simulator,
/// under a per-candidate solver budget so one pathological candidate
/// cannot stall the search.
///
/// Many knobs leave the scheduler's input unchanged, so one search holds
/// two memos. The schedule memo keys scheduleInflConfig's outcome on the
/// influence tree's fingerprint, the scheduler options other than their
/// budget, and the operator budget; an entry answers a lookup under its
/// own Sched.Budget, and an entry where nothing tripped also answers any
/// Sched.Budget that admits its largest per-run charge (the run would
/// replay identically there). The score memo keys the simulated time on
/// (schedule entry, mapping options); the target is fixed per search.
/// Wall-clock budgets and a budget scope already active on the calling
/// thread bypass both memos. Batches run on a worker pool
/// (support/Parallel.h parallelFor), candidates sharing a schedule key
/// in batch order on one worker, so scores and reuse counts are
/// identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TUNE_EVALUATOR_H
#define POLYINJECT_TUNE_EVALUATOR_H

#include "lp/Budget.h"
#include "service/Fingerprint.h"
#include "tune/SearchSpace.h"

#include <cstddef>
#include <limits>
#include <map>
#include <vector>

namespace pinj {
namespace tune {

/// The score of a candidate that failed to produce a simulatable
/// schedule (or tripped its budget): never selected.
inline double failedScore() {
  return std::numeric_limits<double>::infinity();
}

class Evaluator {
public:
  struct Config {
    /// Worker threads for batch evaluation. Scores do not depend on it.
    unsigned Jobs = 1;
    /// Per-candidate resource isolation, installed around each
    /// evaluation (nested inside the candidate's own scheduling
    /// budget). Deterministic work counts only — a wall-clock cap here
    /// would make the chosen config depend on machine load.
    SolverBudget CandidateBudget{/*MaxPivots=*/2000000,
                                 /*MaxIlpNodes=*/200000,
                                 /*WallMs=*/0};
    /// Unique candidate evaluations allowed (the --tune-budget). The
    /// baseline evaluation is free: the never-worse guarantee must not
    /// compete with the search for budget.
    std::size_t MaxEvaluations = 64;
  };

  Evaluator(const Kernel &K, const PipelineOptions &Base,
            const SearchSpace &Space, Config Cfg);

  const Kernel &kernel() const { return K; }
  const PipelineOptions &base() const { return Base; }
  unsigned jobs() const { return Cfg.Jobs; }

  /// The score of the unmodified base options (memoized).
  double baseline();

  /// Scores for each candidate of \p Batch, memoized across calls —
  /// failures included, so a failing candidate never re-pays its
  /// gpusim run when a hill-climbing strategy revisits it. Candidates
  /// beyond the remaining evaluation budget score failedScore()
  /// without being evaluated; since the budget only ever shrinks they
  /// are memoized as failures too (counted on tune.budget_denials).
  std::vector<double> evaluate(const std::vector<Candidate> &Batch);

  /// Unique candidate evaluations performed so far.
  std::size_t evaluations() const { return Evals; }
  std::size_t remaining() const {
    return Evals >= Cfg.MaxEvaluations ? 0 : Cfg.MaxEvaluations - Evals;
  }

  /// What the scorings so far (baseline included) cost and saved.
  struct Work {
    std::size_t ScheduleRuns = 0;   ///< scheduleInflConfig calls.
    std::size_t Simulations = 0;    ///< Target simulator runs.
    std::size_t ScheduleReuses = 0; ///< Answered by the schedule memo.
    std::size_t ScoreReuses = 0;    ///< Answered by the score memo.

    Work &operator+=(const Work &O);
  };
  const Work &work() const { return Done; }

private:
  /// One scheduleInflConfig outcome, with its schedule's scores.
  struct ScheduleEntry {
    SolverBudget Budget; ///< The Sched.Budget it ran under.
    InflScheduleWork Charged;
    bool Accepted = false;
    Schedule Sched;
    /// The score memo, by GpuMappingOptions::MaxThreadsPerBlock.
    std::map<Int, double> Scores;
  };
  using ScheduleEntries = std::vector<ScheduleEntry>;

  std::vector<double> scoreAll(const std::vector<PipelineOptions> &Opts);
  /// Scores \p O, through \p Entries (its key's schedule memo slot) when
  /// given. \p Tree is buildInfluenceTree(K, O.Influence) or null.
  double scoreOne(const PipelineOptions &O, const InfluenceTree *Tree,
                  ScheduleEntries *Entries, Work &W) const;

  const Kernel &K;
  PipelineOptions Base;
  const SearchSpace &Space;
  Config Cfg;
  std::map<Candidate, double> Memo;
  std::map<service::Fingerprint, ScheduleEntries> Schedules;
  double BaselineScore = 0;
  bool HaveBaseline = false;
  std::size_t Evals = 0;
  Work Done;
};

/// The scoring primitive: the simulated kernel time of \p K's infl
/// configuration under \p O, scheduled by scheduleInflConfig — so equal
/// to runOperator's infl time wherever both run undegraded. \returns
/// failedScore() where scheduleInflConfig rejects the schedule or
/// mapping fails.
double predictInflTimeUs(const Kernel &K, const PipelineOptions &O);

/// The scheduling-and-mapping front half of predictInflTimeUs: produces
/// the mapped kernel a candidate's score would simulate, without scoring
/// it. \returns false in exactly the cases predictInflTimeUs returns
/// failedScore(). The calibration tool uses this to accumulate a row's
/// transaction counters once and re-score them under candidate
/// time-model constants.
bool buildInflMappedKernel(const Kernel &K, const PipelineOptions &O,
                           MappedKernel &Out);

} // namespace tune
} // namespace pinj

#endif // POLYINJECT_TUNE_EVALUATOR_H
