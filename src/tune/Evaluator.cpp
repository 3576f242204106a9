//===- tune/Evaluator.cpp -------------------------------------------------===//

#include "tune/Evaluator.h"

#include "codegen/Mapping.h"
#include "lp/Budget.h"
#include "obs/Metrics.h"
#include "support/Parallel.h"
#include "support/Status.h"
#include "target/Target.h"

#include <memory>

using namespace pinj;
using namespace pinj::tune;

bool tune::buildInflMappedKernel(const Kernel &K, const PipelineOptions &O,
                                 MappedKernel &Out) {
  Schedule Infl;
  if (!scheduleInflConfig(K, O, Infl))
    return false;
  try {
    Out = mapToGpu(K, Infl, O.Mapping);
    return true;
  } catch (const RecoverableError &) {
    return false;
  }
}

double tune::predictInflTimeUs(const Kernel &K, const PipelineOptions &O) {
  MappedKernel M;
  if (!buildInflMappedKernel(K, O, M))
    return failedScore();
  return O.Target->simulate(M).TimeUs;
}

Evaluator::Evaluator(const Kernel &K, const PipelineOptions &Base,
                     const SearchSpace &Space, Config Cfg)
    : K(K), Base(Base), Space(Space), Cfg(Cfg) {
  // The evaluator owns its copies of the hooks' absence: candidates are
  // scored outside the pipeline, so downstream hooks must not fire.
  this->Base.Sink = nullptr;
  this->Base.Cache = nullptr;
  this->Base.Tuner = nullptr;
  if (this->Cfg.Jobs == 0)
    this->Cfg.Jobs = 1;
}

Evaluator::Work &Evaluator::Work::operator+=(const Work &O) {
  ScheduleRuns += O.ScheduleRuns;
  Simulations += O.Simulations;
  ScheduleReuses += O.ScheduleReuses;
  ScoreReuses += O.ScoreReuses;
  return *this;
}

namespace {

// The score memo's key is the whole of GpuMappingOptions.
static_assert(sizeof(GpuMappingOptions) == sizeof(Int),
              "key the score memo on every GpuMappingOptions field");

service::Fingerprint scheduleKey(const InfluenceTree &Tree,
                                 const PipelineOptions &O) {
  service::FingerprintBuilder H;
  service::Fingerprint T = service::fingerprintInfluenceTree(Tree);
  H.u64(T.Hi);
  H.u64(T.Lo);
  service::hashSchedulerOptions(H, O.Sched);
  service::hashBudget(H, O.Budget);
  return H.get();
}

bool sameCaps(const SolverBudget &A, const SolverBudget &B) {
  return A.MaxPivots == B.MaxPivots && A.MaxIlpNodes == B.MaxIlpNodes &&
         A.WallMs == B.WallMs;
}

} // namespace

double Evaluator::scoreOne(const PipelineOptions &O, const InfluenceTree *Tree,
                           ScheduleEntries *Entries, Work &W) const {
  // Schedule memo: an entry run under this very budget, else one where
  // nothing tripped and whose largest run fits under this budget. The
  // second rule needs every pivot charged, which the candidate scope
  // guarantees (solvers charge pivots only while some scope is active).
  auto reusable = [&]() -> ScheduleEntry * {
    if (!Entries)
      return nullptr;
    for (ScheduleEntry &Old : *Entries)
      if (sameCaps(Old.Budget, O.Sched.Budget))
        return &Old;
    if (!Cfg.CandidateBudget.unlimited())
      for (ScheduleEntry &Old : *Entries)
        if (!Old.Charged.Tripped && O.Sched.Budget.admits(Old.Charged.MaxRun))
          return &Old;
    return nullptr;
  };
  ScheduleEntry *E = reusable();
  ScheduleEntry Unshared;
  if (E) {
    ++W.ScheduleReuses;
  } else {
    E = Entries ? &Entries->emplace_back() : &Unshared;
    E->Budget = O.Sched.Budget;
    budget::BudgetScope Isolation(Cfg.CandidateBudget);
    E->Accepted = scheduleInflConfig(K, O, E->Sched, Tree, &E->Charged);
    ++W.ScheduleRuns;
  }
  if (!E->Accepted)
    return failedScore();

  auto [Score, Fresh] =
      E->Scores.try_emplace(O.Mapping.MaxThreadsPerBlock, failedScore());
  if (!Fresh) {
    ++W.ScoreReuses;
    return Score->second;
  }
  MappedKernel M;
  try {
    M = mapToGpu(K, E->Sched, O.Mapping);
  } catch (const RecoverableError &) {
    return failedScore();
  }
  ++W.Simulations;
  Score->second = O.Target->simulate(M).TimeUs;
  return Score->second;
}

std::vector<double>
Evaluator::scoreAll(const std::vector<PipelineOptions> &Opts) {
  static obs::Counter &ScheduleReuses =
      obs::metrics().counter("tune.schedule_reuses");
  static obs::Counter &ScoreReuses =
      obs::metrics().counter("tune.score_reuses");

  // A wall clock makes a run depend on machine load, and a scope the
  // caller installed accumulates charges across candidates: neither run
  // replays, so both bypass the memos.
  const bool CallerScoped = budget::active();
  auto memoizable = [&](const PipelineOptions &O) {
    return !CallerScoped && O.Budget.WallMs <= 0 &&
           O.Sched.Budget.WallMs <= 0 && Cfg.CandidateBudget.WallMs <= 0;
  };

  // Each memoizable candidate's tree and schedule key. A tree that
  // fails to build leaves the candidate to the ladder, which records
  // that failure itself.
  const std::size_t N = Opts.size();
  std::vector<std::unique_ptr<InfluenceTree>> Trees(N);
  std::vector<service::Fingerprint> Keys(N);
  parallelFor(N, Cfg.Jobs, [&](std::size_t I) {
    if (!memoizable(Opts[I]))
      return;
    try {
      // Built in place: the root's children point back at it, so the
      // tree must never move.
      Trees[I].reset(
          new InfluenceTree(buildInfluenceTree(K, Opts[I].Influence)));
    } catch (const RecoverableError &) {
      return;
    }
    Keys[I] = scheduleKey(*Trees[I], Opts[I]);
  });

  // Group by schedule key, in batch order; every other candidate is a
  // group of its own. Each group's memo slot exists before the workers
  // start, and only that group's worker touches it, so no locks.
  std::vector<std::vector<std::size_t>> Groups;
  std::vector<ScheduleEntries *> Slots;
  std::map<service::Fingerprint, std::size_t> GroupOf;
  for (std::size_t I = 0; I < N; ++I) {
    if (!Trees[I]) {
      Groups.push_back({I});
      Slots.push_back(nullptr);
      continue;
    }
    auto [It, New] = GroupOf.try_emplace(Keys[I], Groups.size());
    if (New) {
      Groups.emplace_back();
      Slots.push_back(&Schedules[Keys[I]]);
    }
    Groups[It->second].push_back(I);
  }

  std::vector<double> Scores(N, failedScore());
  std::vector<Work> GroupWork(Groups.size());
  parallelFor(Groups.size(), Cfg.Jobs, [&](std::size_t G) {
    for (std::size_t I : Groups[G])
      Scores[I] = scoreOne(Opts[I], Trees[I].get(), Slots[G], GroupWork[G]);
  });
  Work Batch;
  for (const Work &W : GroupWork)
    Batch += W;
  Done += Batch;
  ScheduleReuses.add(Batch.ScheduleReuses);
  ScoreReuses.add(Batch.ScoreReuses);
  return Scores;
}

double Evaluator::baseline() {
  if (!HaveBaseline) {
    BaselineScore = scoreAll({Base})[0];
    HaveBaseline = true;
  }
  return BaselineScore;
}

std::vector<double> Evaluator::evaluate(const std::vector<Candidate> &Batch) {
  static obs::Counter &Evaluated = obs::metrics().counter("tune.evaluations");
  static obs::Counter &Failures =
      obs::metrics().counter("tune.candidate_failures");
  static obs::Counter &Denials =
      obs::metrics().counter("tune.budget_denials");

  std::vector<double> Out(Batch.size(), failedScore());

  // Collect the unique, uncached candidates in batch order, up to the
  // remaining evaluation budget; everything else resolves from the
  // memo. Candidates past the budget are memoized as failures right
  // here: the budget only ever shrinks, so this evaluator can never
  // score them, and recording that keeps revisits (greedy/anneal
  // neighbors) from re-asking every call.
  std::vector<Candidate> Fresh;
  std::vector<PipelineOptions> FreshOptions;
  std::map<Candidate, std::size_t> FreshIndex;
  for (const Candidate &C : Batch) {
    if (Memo.count(C) || FreshIndex.count(C))
      continue;
    if (Fresh.size() >= remaining()) {
      Memo.emplace(C, failedScore());
      Denials.inc();
      continue;
    }
    FreshIndex.emplace(C, Fresh.size());
    Fresh.push_back(C);
    Space.apply(C, FreshOptions.emplace_back(Base));
  }

  std::vector<double> Scores = scoreAll(FreshOptions);
  for (std::size_t I = 0; I < Fresh.size(); ++I) {
    Memo.emplace(Fresh[I], Scores[I]);
    if (Scores[I] == failedScore())
      Failures.inc();
  }
  Evals += Fresh.size();
  Evaluated.add(Fresh.size());

  for (std::size_t I = 0; I < Batch.size(); ++I) {
    auto It = Memo.find(Batch[I]);
    if (It != Memo.end())
      Out[I] = It->second;
  }
  return Out;
}
