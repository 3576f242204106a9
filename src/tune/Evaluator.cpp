//===- tune/Evaluator.cpp -------------------------------------------------===//

#include "tune/Evaluator.h"

#include "codegen/Mapping.h"
#include "lp/Budget.h"
#include "obs/Metrics.h"
#include "support/Parallel.h"
#include "support/Status.h"
#include "target/Target.h"

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
  return target::simulateForOptions(M, O).TimeUs;
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

double Evaluator::scoreOne(const Candidate &C) const {
  PipelineOptions O = Base;
  Space.apply(C, O);
  budget::BudgetScope Isolation(Cfg.CandidateBudget);
  return predictInflTimeUs(K, O);
}

double Evaluator::baseline() {
  if (!HaveBaseline) {
    budget::BudgetScope Isolation(Cfg.CandidateBudget);
    BaselineScore = predictInflTimeUs(K, Base);
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
  }

  // Score the fresh candidates on the worker pool. Workers only write
  // disjoint Scores slots; the memo is filled after the join, so no
  // locking is needed and results are independent of the worker count.
  std::vector<double> Scores(Fresh.size(), failedScore());
  parallelFor(Fresh.size(), Cfg.Jobs,
              [&](std::size_t I) { Scores[I] = scoreOne(Fresh[I]); });
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
