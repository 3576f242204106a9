//===- tests/tune_test.cpp - Autotuning subsystem tests -------------------===//
//
// Covers src/tune/: search-space enumeration and encoding round-trips,
// evaluator memoization and the never-worse guarantee, strategy
// determinism across seeds and worker counts, tuning-database
// persistence (corruption, version and space-shape staleness all
// degrade to re-searches, never errors), and the pipeline-level tuning
// hook. Like service_test, this executable is built separately so the
// POLYINJECT_SANITIZE=thread configuration can run its worker-pool and
// shared-database tests under TSan.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "service/Fingerprint.h"
#include "target/Target.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"
#include "tune/SearchSpace.h"
#include "tune/Strategy.h"
#include "tune/TuningDb.h"

#include "TestKernels.h"
#include "../bench/BenchUtil.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "gtest/gtest.h"

using namespace pinj;
using namespace pinj::tune;

namespace {

std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

service::Fingerprint keyOf(std::uint64_t Hi, std::uint64_t Lo) {
  service::Fingerprint F;
  F.Hi = Hi;
  F.Lo = Lo;
  return F;
}

DbEntry entryFor(const SearchSpace &Space, const std::string &Encoding,
                 double TimeUs) {
  DbEntry E;
  E.Encoding = Encoding;
  E.PredictedTimeUs = TimeUs;
  E.Strategy = "exhaustive";
  E.SpaceSignature = Space.signature();
  return E;
}

//===----------------------------------------------------------------------===//
// SearchSpace
//===----------------------------------------------------------------------===//

TEST(SearchSpace, EnumerationCoversEveryCombination) {
  SearchSpace Space = tinySearchSpace();
  ASSERT_EQ(Space.dims().size(), 2u);
  EXPECT_EQ(Space.size(), 4u);
  std::set<std::string> Seen;
  for (std::size_t I = 0; I < Space.size(); ++I)
    Seen.insert(Space.encode(Space.candidateAt(I)));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(SearchSpace, DefaultSpaceShape) {
  SearchSpace Space = defaultSearchSpace();
  EXPECT_GE(Space.dims().size(), 5u);
  EXPECT_GT(Space.size(), 100u);
  // Every dimension leads with the paper-default value, so candidate 0
  // must read back as the default options' projection.
  PipelineOptions Defaults;
  EXPECT_EQ(Space.project(Defaults), Space.candidateAt(0));
}

TEST(SearchSpace, EncodeDecodeRoundTrip) {
  SearchSpace Space = defaultSearchSpace();
  for (std::size_t I : {std::size_t(0), Space.size() / 2, Space.size() - 1}) {
    Candidate C = Space.candidateAt(I);
    Candidate Back;
    ASSERT_TRUE(Space.decode(Space.encode(C), Back));
    EXPECT_EQ(Back, C);
  }
}

TEST(SearchSpace, DecodeRejectsForeignEncodings) {
  SearchSpace Tiny = tinySearchSpace();
  SearchSpace Full = defaultSearchSpace();
  Candidate C;
  // A full-space encoding has segments the tiny space does not know.
  EXPECT_FALSE(Tiny.decode(Full.encode(Full.candidateAt(0)), C));
  // And vice versa: too few segments.
  EXPECT_FALSE(Full.decode(Tiny.encode(Tiny.candidateAt(0)), C));
  // Unknown value.
  EXPECT_FALSE(
      Tiny.decode("influence.max_vector_width=3,mapping.max_threads=256", C));
  // Garbage.
  EXPECT_FALSE(Tiny.decode("", C));
  EXPECT_FALSE(Tiny.decode("baseline", C));
}

TEST(SearchSpace, DecodeRejectsMalformedNameValueStrings) {
  SearchSpace Space = tinySearchSpace();
  Candidate Good;
  std::string GoodText = Space.encode(Space.candidateAt(1));
  ASSERT_TRUE(Space.decode(GoodText, Good));

  Candidate C = Good;
  // Segment without '='.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width,mapping.max_threads=256", C));
  // Empty value.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=,mapping.max_threads=256", C));
  // Non-numeric value, and trailing garbage after the number.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=two,mapping.max_threads=256", C));
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=1x,mapping.max_threads=256", C));
  // Misspelled dimension name.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_widt=1,mapping.max_threads=256", C));
  // Segments are positional: reordering is not the same encoding.
  EXPECT_FALSE(Space.decode(
      "mapping.max_threads=256,influence.max_vector_width=1", C));
  // Trailing comma / trailing bytes / leading whitespace.
  EXPECT_FALSE(Space.decode(GoodText + ",", C));
  EXPECT_FALSE(Space.decode(GoodText + " ", C));
  EXPECT_FALSE(Space.decode(" " + GoodText, C));
  // A failed decode never leaves a partial write behind.
  EXPECT_EQ(C, Good);
}

TEST(SearchSpace, ApplyChangesOptions) {
  SearchSpace Space = tinySearchSpace();
  Candidate C;
  ASSERT_TRUE(Space.decode(
      "influence.max_vector_width=1,mapping.max_threads=256", C));
  PipelineOptions O;
  Space.apply(C, O);
  EXPECT_EQ(O.Influence.MaxVectorWidth, 1u);
  EXPECT_EQ(O.Mapping.MaxThreadsPerBlock, 256);
}

TEST(SearchSpace, NeighborsDifferInOneDimension) {
  SearchSpace Space = defaultSearchSpace();
  Candidate Mid = Space.candidateAt(Space.size() / 2);
  for (const Candidate &N : Space.neighbors(Mid)) {
    unsigned Diffs = 0;
    for (std::size_t I = 0; I < Mid.size(); ++I)
      Diffs += N[I] != Mid[I] ? 1 : 0;
    EXPECT_EQ(Diffs, 1u);
  }
  // Interior candidates have two neighbors per multi-valued dimension.
  EXPECT_FALSE(Space.neighbors(Mid).empty());
}

TEST(SearchSpace, SignatureTracksShape) {
  EXPECT_NE(tinySearchSpace().signature(), defaultSearchSpace().signature());
  EXPECT_EQ(tinySearchSpace().signature(), tinySearchSpace().signature());
  EXPECT_EQ(tinySearchSpace().signature().size(), 32u);
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

TEST(Evaluator, BaselineMatchesCandidateZeroOnDefaults) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator Eval(K, Base, Space, {});
  double Baseline = Eval.baseline();
  ASSERT_TRUE(std::isfinite(Baseline));
  // Candidate 0 applies the default values, so it scores the same.
  std::vector<double> S = Eval.evaluate({Space.candidateAt(0)});
  EXPECT_DOUBLE_EQ(S[0], Baseline);
}

TEST(Evaluator, MemoizesAndHonorsBudget) {
  Kernel K = makeElementwise(8, 12);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  Cfg.MaxEvaluations = 2;
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0), C1 = Space.candidateAt(1);
  Candidate C2 = Space.candidateAt(2);
  std::vector<double> First = Eval.evaluate({C0, C0, C1});
  EXPECT_EQ(Eval.evaluations(), 2u);
  EXPECT_EQ(Eval.remaining(), 0u);
  EXPECT_DOUBLE_EQ(First[0], First[1]);
  // Budget exhausted: a new candidate fails, memoized ones still
  // resolve.
  std::vector<double> Second = Eval.evaluate({C2, C0});
  EXPECT_EQ(Second[0], failedScore());
  EXPECT_DOUBLE_EQ(Second[1], First[0]);
  EXPECT_EQ(Eval.evaluations(), 2u);
}

TEST(Evaluator, BudgetDenialsAreMemoizedAndCountedOnce) {
  Kernel K = makeElementwise(8, 12);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  Cfg.MaxEvaluations = 1;
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0), C1 = Space.candidateAt(1);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::vector<double> First = Eval.evaluate({C0, C1});
  EXPECT_NE(First[0], failedScore());
  EXPECT_EQ(First[1], failedScore());
  obs::MetricsSnapshot D1 = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D1.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D1.counter("tune.budget_denials"), 1u);

  // Revisits resolve from the memo: no new evaluations, and the denied
  // candidate is not denied (or counted) a second time.
  std::vector<double> Second = Eval.evaluate({C1, C0, C1});
  EXPECT_EQ(Second[0], failedScore());
  EXPECT_DOUBLE_EQ(Second[1], First[0]);
  EXPECT_EQ(Second[2], failedScore());
  obs::MetricsSnapshot D2 = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D2.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D2.counter("tune.budget_denials"), 1u);
  EXPECT_EQ(Eval.evaluations(), 1u);
}

TEST(Evaluator, EvaluatedFailuresAreMemoizedAndCountedOnce) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  // A one-pivot solver budget trips on any real kernel, so every
  // candidate fails to evaluate — the interesting case: the failure
  // must be paid for (and counted) exactly once.
  Cfg.CandidateBudget = SolverBudget{/*MaxPivots=*/1, /*MaxIlpNodes=*/1,
                                     /*WallMs=*/0};
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  EXPECT_EQ(Eval.evaluate({C0})[0], failedScore());
  EXPECT_EQ(Eval.evaluate({C0})[0], failedScore());
  EXPECT_EQ(Eval.evaluate({C0, C0})[1], failedScore());
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D.counter("tune.candidate_failures"), 1u);
  EXPECT_EQ(D.counter("tune.budget_denials"), 0u);
  EXPECT_EQ(Eval.evaluations(), 1u);
}

TEST(Evaluator, ScoresIndependentOfWorkerCount) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  std::vector<Candidate> Batch;
  for (std::size_t I = 0; I < 24; ++I)
    Batch.push_back(Space.candidateAt(I * 7));

  Evaluator::Config Serial;
  Serial.Jobs = 1;
  Serial.MaxEvaluations = 64;
  Evaluator E1(K, Base, Space, Serial);
  std::vector<double> S1 = E1.evaluate(Batch);

  Evaluator::Config Parallel = Serial;
  Parallel.Jobs = 8;
  Evaluator E8(K, Base, Space, Parallel);
  std::vector<double> S8 = E8.evaluate(Batch);

  ASSERT_EQ(S1.size(), S8.size());
  for (std::size_t I = 0; I < S1.size(); ++I)
    EXPECT_DOUBLE_EQ(S1[I], S8[I]) << "candidate " << I;
}

TEST(Evaluator, ScoresWhatRunOperatorSimulates) {
  // The evaluator scores the infl configuration runOperator would
  // produce: wherever it accepts a candidate and the pipeline took no
  // degradation, the two times agree bit for bit. Corpus x (baseline +
  // a fixed stride of default-space candidates).
  SearchSpace Space = defaultSearchSpace();
  std::vector<PipelineOptions> Configs(1);
  const std::size_t Stride = Space.size() / 4;
  for (std::size_t I = 0; I < 4; ++I) {
    Configs.emplace_back();
    Space.apply(Space.candidateAt(I * Stride + Stride / 2), Configs.back());
  }
  unsigned Compared = 0, Pairs = 0;
  for (const Kernel &K : tuneBenchCorpus(0)) {
    for (std::size_t C = 0; C < Configs.size(); ++C) {
      ++Pairs;
      double Predicted = predictInflTimeUs(K, Configs[C]);
      OperatorReport R = runOperator(K, Configs[C]);
      if (Predicted == failedScore() || R.degraded())
        continue;
      ++Compared;
      EXPECT_EQ(Predicted, R.Infl.TimeUs) << K.Name << " config " << C;
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GE(Compared * 2, Pairs);
}

TEST(Evaluator, RejectsRunsTheirOwnSchedulerBudgetStarved) {
  // Sched.Budget's scope ends inside scheduleKernel, before
  // scheduleInflConfig asks anyTripped(); a candidate whose influenced
  // run it starved must fail all the same.
  const std::set<std::string> Names = {
      "hostile_permute_a", "hostile_permute_b", "middle_permuted_a",
      "middle_permuted_b", "softmax_like_a",    "softmax_like_b"};
  unsigned Starved = 0;
  for (const Kernel &K : tuneBenchCorpus(0)) {
    if (!Names.count(K.Name))
      continue;
    for (std::uint64_t Pivots :
         {8, 16, 32, 48, 68, 96, 128, 192, 256, 384, 527, 768, 1024, 4096}) {
      PipelineOptions O;
      O.Sched.Budget.MaxPivots = Pivots;
      Schedule S;
      bool Accepted = scheduleInflConfig(K, O, S);
      OperatorReport R = runOperator(K, O);
      bool BudgetDegraded = false;
      for (const DegradationEvent &D : R.Degradations)
        BudgetDegraded |= D.Site == "sched.budget" &&
                          (D.Config == "novec" || D.Config == "infl");
      if (!BudgetDegraded)
        continue;
      ++Starved;
      EXPECT_FALSE(Accepted) << K.Name << " MaxPivots=" << Pivots;
    }
  }
  EXPECT_GT(Starved, 0u);
}

//===----------------------------------------------------------------------===//
// Evaluator memos
//===----------------------------------------------------------------------===//

Kernel corpusKernel(const std::string &Name) {
  for (Kernel &K : tuneBenchCorpus(0))
    if (K.Name == Name)
      return std::move(K);
  ADD_FAILURE() << "no corpus kernel " << Name;
  return Kernel();
}

std::uint64_t bitsOf(double V) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// predictInflTimeUs of \p C under the evaluator's candidate scope, with
/// no memo anywhere.
double freshScore(const Kernel &K, const PipelineOptions &Base,
                  const SearchSpace &Space, const Candidate &C,
                  const Evaluator::Config &Cfg = {}) {
  PipelineOptions O = Base;
  Space.apply(C, O);
  budget::BudgetScope Isolation(Cfg.CandidateBudget);
  return predictInflTimeUs(K, O);
}

/// Candidates [Start, Start + 24) of the default space: every
/// mapping.max_threads x sched.proximity_input x sched.budget_tier
/// combination (the three fastest-varying dimensions) under one tree.
std::vector<Candidate> defaultSpaceSlice(std::size_t Start) {
  SearchSpace Space = defaultSearchSpace();
  std::vector<Candidate> Slice;
  for (std::size_t I = Start; I < Start + 24; ++I)
    Slice.push_back(Space.candidateAt(I));
  return Slice;
}

TEST(EvaluatorMemo, ScoresEqualFreshPredictionsBitForBit) {
  SearchSpace Tiny = tinySearchSpace();
  SearchSpace Full = defaultSearchSpace();
  std::vector<Candidate> TinyAll;
  for (std::size_t I = 0; I < Tiny.size(); ++I)
    TinyAll.push_back(Tiny.candidateAt(I));
  const std::vector<Candidate> Slice = defaultSpaceSlice(24 * 13);
  std::set<std::int64_t> Tiers;
  for (const Candidate &C : Slice) {
    PipelineOptions O;
    Full.apply(C, O);
    Tiers.insert(O.Sched.Budget.MaxPivots);
  }
  ASSERT_EQ(Tiers.size(), 3u);

  PipelineOptions Base;
  std::size_t ScheduleReuses = 0, ScoreReuses = 0, Finite = 0;
  for (const Kernel &K : tuneBenchCorpus(0)) {
    for (const SearchSpace *Space : {&Tiny, &Full}) {
      const std::vector<Candidate> &Batch = Space == &Tiny ? TinyAll : Slice;
      Evaluator::Config Cfg;
      Cfg.MaxEvaluations = Batch.size();
      Evaluator Eval(K, Base, *Space, Cfg);
      EXPECT_EQ(bitsOf(Eval.baseline()),
                bitsOf(freshScore(K, Base, *Space, Space->project(Base))))
          << K.Name;
      std::vector<double> Memoized = Eval.evaluate(Batch);
      for (std::size_t I = 0; I < Batch.size(); ++I) {
        double Fresh = freshScore(K, Base, *Space, Batch[I]);
        EXPECT_EQ(bitsOf(Memoized[I]), bitsOf(Fresh))
            << K.Name << " " << Space->encode(Batch[I]);
        Finite += std::isfinite(Fresh) ? 1 : 0;
      }
      ScheduleReuses += Eval.work().ScheduleReuses;
      ScoreReuses += Eval.work().ScoreReuses;
    }
  }
  // Not vacuous: most scores are real, and both memos answered.
  EXPECT_GT(Finite, 22u * (4 + 24) / 2);
  EXPECT_GT(ScheduleReuses, 0u);
  EXPECT_GT(ScoreReuses, 0u);
}

TEST(EvaluatorMemo, TrippedEntryNeverAnswersAnotherTier) {
  // Tier 0 keeps the base scheduler budget, here a cap the influenced
  // run trips; tiers 1 and 2 cap far above what the run needs.
  Kernel K = corpusKernel("hostile_permute_a");
  PipelineOptions Base;
  Base.Sched.Budget.MaxPivots = 40; // The influenced run needs 42.
  SearchSpace Space = defaultSearchSpace();
  // sched.budget_tier is the last, fastest-varying dimension.
  const Candidate T0 = Space.candidateAt(0), T1 = Space.candidateAt(1),
                  T2 = Space.candidateAt(2);
  ASSERT_EQ(freshScore(K, Base, Space, T0), failedScore());
  ASSERT_NE(freshScore(K, Base, Space, T1), failedScore());

  for (const std::vector<Candidate> &Order :
       {std::vector<Candidate>{T0, T1, T2}, {T1, T0, T2}, {T2, T1, T0}}) {
    Evaluator Eval(K, Base, Space, {});
    std::vector<double> Scores = Eval.evaluate(Order);
    for (std::size_t I = 0; I < Order.size(); ++I)
      EXPECT_EQ(bitsOf(Scores[I]),
                bitsOf(freshScore(K, Base, Space, Order[I])))
          << Space.encode(Order[I]);
    // Tier 0 ran on its own and tripped; tiers 1 and 2 share one run
    // (whichever came first), since it fits under both of their caps.
    EXPECT_EQ(Eval.work().ScheduleRuns, 2u);
    EXPECT_EQ(Eval.work().ScheduleReuses, 1u);
  }
}

TEST(EvaluatorMemo, WallClockBudgetsAndCallerScopesBypassBothMemos) {
  Kernel K = makeRunningExample(8);
  SearchSpace Space = defaultSearchSpace();
  // Three tiers of one candidate (one schedule, one score between them)
  // and a proximity flip (another schedule key).
  const std::vector<Candidate> Batch = {
      Space.candidateAt(0), Space.candidateAt(1), Space.candidateAt(2),
      Space.candidateAt(3)};
  const double Deadline = 600000;

  Evaluator Memoized(K, PipelineOptions(), Space, {});
  const std::vector<double> Expected = Memoized.evaluate(Batch);
  EXPECT_EQ(Memoized.work().ScheduleReuses, 2u);
  EXPECT_EQ(Memoized.work().ScoreReuses, 2u);

  auto ExpectBypassed = [&](const PipelineOptions &Base,
                            const Evaluator::Config &Cfg,
                            const char *Case) {
    Evaluator Eval(K, Base, Space, Cfg);
    std::vector<double> Scores = Eval.evaluate(Batch);
    for (std::size_t I = 0; I < Batch.size(); ++I)
      EXPECT_EQ(bitsOf(Scores[I]), bitsOf(Expected[I])) << Case << " " << I;
    EXPECT_EQ(Eval.work().ScheduleRuns, Batch.size()) << Case;
    EXPECT_EQ(Eval.work().ScheduleReuses, 0u) << Case;
    EXPECT_EQ(Eval.work().ScoreReuses, 0u) << Case;
  };
  PipelineOptions OpDeadline;
  OpDeadline.Budget.WallMs = Deadline;
  ExpectBypassed(OpDeadline, {}, "operator budget");
  PipelineOptions SchedDeadline;
  SchedDeadline.Sched.Budget.WallMs = Deadline;
  ExpectBypassed(SchedDeadline, {}, "scheduler budget");
  Evaluator::Config CandidateDeadline;
  CandidateDeadline.CandidateBudget.WallMs = Deadline;
  ExpectBypassed(PipelineOptions(), CandidateDeadline, "candidate budget");
  {
    budget::BudgetScope Caller(SolverBudget{/*MaxPivots=*/100000000,
                                            /*MaxIlpNodes=*/0,
                                            /*WallMs=*/0});
    ExpectBypassed(PipelineOptions(), {}, "caller scope");
  }
}

TEST(EvaluatorMemo, ScoresAndReuseCountsIndependentOfWorkerCount) {
  SearchSpace Space = defaultSearchSpace();
  std::vector<Candidate> First = defaultSpaceSlice(24 * 40);
  std::vector<Candidate> Second = defaultSpaceSlice(24 * 41);
  for (std::size_t I = 0; I < 8; ++I) {
    First.push_back(Space.candidateAt(I * 97));
    Second.push_back(Space.candidateAt(I * 97 + 1));
  }
  for (const Kernel &K :
       {makeRunningExample(8), corpusKernel("softmax_like_a")}) {
    std::vector<double> Scores[2];
    Evaluator::Work Work[2];
    const unsigned JobCounts[2] = {1, 4};
    for (int Round = 0; Round < 2; ++Round) {
      Evaluator::Config Cfg;
      Cfg.Jobs = JobCounts[Round];
      Cfg.MaxEvaluations = First.size() + Second.size();
      Evaluator Eval(K, PipelineOptions(), Space, Cfg);
      obs::MetricsSnapshot Before = obs::metrics().snapshot();
      Eval.baseline();
      // Two batches: the second one meets the first one's entries.
      Scores[Round] = Eval.evaluate(First);
      for (double S : Eval.evaluate(Second))
        Scores[Round].push_back(S);
      Work[Round] = Eval.work();
      obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
      EXPECT_EQ(D.counter("tune.schedule_reuses"), Work[Round].ScheduleReuses);
      EXPECT_EQ(D.counter("tune.score_reuses"), Work[Round].ScoreReuses);
    }
    ASSERT_EQ(Scores[0].size(), Scores[1].size());
    for (std::size_t I = 0; I < Scores[0].size(); ++I)
      EXPECT_EQ(bitsOf(Scores[0][I]), bitsOf(Scores[1][I]))
          << K.Name << " candidate " << I;
    EXPECT_EQ(Work[0].ScheduleRuns, Work[1].ScheduleRuns) << K.Name;
    EXPECT_EQ(Work[0].Simulations, Work[1].Simulations) << K.Name;
    EXPECT_EQ(Work[0].ScheduleReuses, Work[1].ScheduleReuses) << K.Name;
    EXPECT_EQ(Work[0].ScoreReuses, Work[1].ScoreReuses) << K.Name;
    EXPECT_GT(Work[0].ScheduleReuses, 0u) << K.Name;
    EXPECT_GT(Work[0].ScoreReuses, 0u) << K.Name;
  }
}

//===----------------------------------------------------------------------===//
// Strategies
//===----------------------------------------------------------------------===//

TEST(Strategy, RegistryKnowsAllNamesAndRejectsOthers) {
  for (const std::string &Name : strategyNames()) {
    std::unique_ptr<Strategy> S = makeStrategy(Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->name(), Name);
  }
  EXPECT_EQ(makeStrategy("random"), nullptr);
  EXPECT_EQ(makeStrategy(""), nullptr);
}

TEST(Strategy, ExhaustiveFindsTheGlobalOptimumOfTinySpace) {
  Kernel K = makeBadOrderCopy(16, 64);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator Eval(K, Base, Space, {});
  std::optional<ScoredCandidate> Best =
      makeStrategy("exhaustive")->run(Space, Eval, 0);
  ASSERT_TRUE(Best.has_value());
  // Verify against a fresh evaluation of every candidate.
  Evaluator Check(K, Base, Space, {});
  for (std::size_t I = 0; I < Space.size(); ++I) {
    double S = Check.evaluate({Space.candidateAt(I)})[0];
    if (S != failedScore())
      EXPECT_LE(Best->TimeUs, S);
  }
}

TEST(Strategy, DeterministicAcrossWorkerCountsAndRepeats) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  for (const std::string &Name : strategyNames()) {
    std::unique_ptr<Strategy> S = makeStrategy(Name);
    std::optional<ScoredCandidate> Results[2];
    unsigned JobCounts[2] = {1, 8};
    for (int Round = 0; Round < 2; ++Round) {
      Evaluator::Config Cfg;
      Cfg.Jobs = JobCounts[Round];
      Cfg.MaxEvaluations = 40;
      Evaluator Eval(K, Base, Space, Cfg);
      Results[Round] = S->run(Space, Eval, /*Seed=*/7);
    }
    ASSERT_EQ(Results[0].has_value(), Results[1].has_value()) << Name;
    if (Results[0]) {
      EXPECT_EQ(Results[0]->C, Results[1]->C) << Name;
      EXPECT_DOUBLE_EQ(Results[0]->TimeUs, Results[1]->TimeUs) << Name;
    }
  }
}

TEST(Strategy, AnnealSeedChangesTheWalkButStaysDeterministic) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  std::unique_ptr<Strategy> S = makeStrategy("anneal");
  auto RunWithSeed = [&](std::uint64_t Seed) {
    Evaluator::Config Cfg;
    Cfg.MaxEvaluations = 24;
    Evaluator Eval(K, Base, Space, Cfg);
    return S->run(Space, Eval, Seed);
  };
  std::optional<ScoredCandidate> A1 = RunWithSeed(1), A2 = RunWithSeed(1);
  ASSERT_TRUE(A1 && A2);
  EXPECT_EQ(A1->C, A2->C);
  EXPECT_DOUBLE_EQ(A1->TimeUs, A2->TimeUs);
}

//===----------------------------------------------------------------------===//
// TuningDb
//===----------------------------------------------------------------------===//

TEST(TuningDb, RoundTripsThroughDisk) {
  auto Dir = freshDir("tunedb-roundtrip");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 2), entryFor(Space, "baseline", 4.5));
    Db.store(keyOf(3, 4),
             entryFor(Space,
                      Space.encode(Space.candidateAt(3)), 2.25));
    EXPECT_EQ(Db.stats().Stores, 2u);
  }
  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 2u);
  EXPECT_EQ(Db.stats().Rejects, 0u);
  DbEntry E;
  ASSERT_TRUE(Db.lookup(keyOf(3, 4), E));
  EXPECT_EQ(E.Encoding, Space.encode(Space.candidateAt(3)));
  EXPECT_DOUBLE_EQ(E.PredictedTimeUs, 2.25);
  EXPECT_EQ(E.Strategy, "exhaustive");
  EXPECT_EQ(E.SpaceSignature, Space.signature());
  EXPECT_FALSE(Db.lookup(keyOf(9, 9), E));
  EXPECT_EQ(Db.stats().Misses, 1u);
}

TEST(TuningDb, MissingFileIsEmpty) {
  auto Dir = freshDir("tunedb-missing");
  TuningDb Db((Dir / "absent.db").string());
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(Db.stats().Rejects, 0u);
}

TEST(TuningDb, TruncatedFileKeepsValidPrefix) {
  auto Dir = freshDir("tunedb-truncated");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 1), entryFor(Space, "baseline", 1.0));
    Db.store(keyOf(2, 2), entryFor(Space, "baseline", 2.0));
  }
  // Chop the file mid-entry (drop the terminator and the tail of the
  // second entry).
  std::string Bytes = slurp(Path);
  ASSERT_GT(Bytes.size(), 40u);
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      << Bytes.substr(0, Bytes.size() / 2);

  TuningDb Db(Path);
  EXPECT_GE(Db.stats().Rejects, 1u);
  EXPECT_LT(Db.size(), 2u);
  // Still usable: stores repair the file.
  Db.store(keyOf(3, 3), entryFor(Space, "baseline", 3.0));
  TuningDb Reloaded(Path);
  EXPECT_EQ(Reloaded.stats().Rejects, 0u);
  DbEntry E;
  EXPECT_TRUE(Reloaded.lookup(keyOf(3, 3), E));
}

TEST(TuningDb, VersionBumpRejectsWholeFile) {
  auto Dir = freshDir("tunedb-version");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 1), entryFor(Space, "baseline", 1.0));
  }
  std::string Bytes = slurp(Path);
  size_t At = Bytes.find("v1");
  ASSERT_NE(At, std::string::npos);
  Bytes.replace(At, 2, "v9");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(Db.stats().Rejects, 1u);
}

TEST(TuningDb, VersionBumpCountsGlobalRejects) {
  auto Dir = freshDir("tunedb-version-counter");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(2, 2), entryFor(Space, "baseline", 1.0));
  }
  std::string Bytes = slurp(Path);
  size_t At = Bytes.find("v1");
  ASSERT_NE(At, std::string::npos);
  Bytes.replace(At, 2, "v9");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

  // The fleet-visible counter moves with the per-instance stat: one
  // reject on reload, nothing recoverable behind it.
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  TuningDb Db(Path);
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(D.counter("tune.db_rejects"), 1u);
}

TEST(TuningDb, CorruptEntriesAreSkippedNotFatal) {
  auto Dir = freshDir("tunedb-corrupt");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  std::string Good;
  {
    TuningDb Db(Path);
    Db.store(keyOf(10, 20), entryFor(Space, "baseline", 5.0));
    Good = slurp(Path);
  }
  // Splice damaged entries around the good one: bad fingerprint hex,
  // non-numeric time, wrong payload length.
  std::string Sig = Space.signature();
  std::string Damaged =
      "polyinject-tunedb v1\n"
      "entry ZZZZe5649253325dbc99c2db6f0d0002 " + Sig +
      " greedy 1.0 8\nbaseline\n" +
      Good.substr(Good.find("entry ")) // good entry + "end\n"
      ;
  Damaged.insert(Damaged.rfind("end\n"),
                 "entry 00000000000000000000000000000001 " + Sig +
                     " greedy notanumber 8\nbaseline\n");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Damaged;

  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 1u);
  EXPECT_GE(Db.stats().Rejects, 2u);
  DbEntry E;
  EXPECT_TRUE(Db.lookup(keyOf(10, 20), E));
  EXPECT_DOUBLE_EQ(E.PredictedTimeUs, 5.0);
}

TEST(TuningDb, SharedAcrossThreads) {
  auto Dir = freshDir("tunedb-threads");
  TuningDb Db((Dir / "tune.db").string());
  SearchSpace Space = tinySearchSpace();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (std::uint64_t I = 0; I < 8; ++I) {
        Db.store(keyOf(T, I), entryFor(Space, "baseline", double(I)));
        DbEntry E;
        Db.lookup(keyOf(T, I), E);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Db.size(), 32u);
  TuningDb Reloaded(Db.path());
  EXPECT_EQ(Reloaded.size(), 32u);
  EXPECT_EQ(Reloaded.stats().Rejects, 0u);
}

//===----------------------------------------------------------------------===//
// Autotuner (the pipeline hook)
//===----------------------------------------------------------------------===//

Autotuner::Config tinyTunerConfig() {
  Autotuner::Config Cfg;
  Cfg.Strategy = "exhaustive";
  Cfg.Space = tinySearchSpace();
  Cfg.MaxEvaluations = 16;
  return Cfg;
}

TEST(Autotuner, NeverSelectsWorseThanBaseline) {
  std::vector<Kernel> Kernels;
  Kernels.push_back(makeRunningExample(8));
  Kernels.push_back(makeBadOrderCopy(16, 64));
  Kernels.push_back(makeRowReduction(16, 32));
  Autotuner Tuner(tinyTunerConfig());
  for (const Kernel &K : Kernels) {
    PipelineOptions Base;
    Evaluator BaseEval(K, Base, Tuner.config().Space, {});
    double Baseline = BaseEval.baseline();

    PipelineOptions Tuned = Base;
    TunedConfig Chosen;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Chosen)) << K.Name;
    EXPECT_FALSE(Chosen.FromDb);
    if (std::isfinite(Baseline))
      EXPECT_LE(Chosen.PredictedTimeUs, Baseline) << K.Name;
    if (Chosen.Encoding == "baseline")
      EXPECT_EQ(service::fingerprintOptions(Tuned),
                service::fingerprintOptions(Base))
          << K.Name;
    else
      EXPECT_NE(service::fingerprintOptions(Tuned),
                service::fingerprintOptions(Base))
          << K.Name;
  }
}

TEST(Autotuner, RunOperatorReportsTunedConfig) {
  Kernel K = makeRunningExample(8);
  Autotuner Tuner(tinyTunerConfig());
  PipelineOptions Options;
  Options.Tuner = &Tuner;
  obs::ReportSink Sink;
  Options.Sink = &Sink;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Tuned);
  EXPECT_FALSE(R.Tuning.Encoding.empty());
  EXPECT_EQ(R.Tuning.Strategy, "exhaustive");
  ASSERT_EQ(Sink.operators().size(), 1u);
  EXPECT_TRUE(Sink.operators()[0].Tuned);
  EXPECT_EQ(Sink.operators()[0].TuneEncoding, R.Tuning.Encoding);
  // The sidecar JSON carries the tuning object.
  EXPECT_NE(Sink.json().find("\"tuning\""), std::string::npos);
  EXPECT_NE(Sink.json().find("\"strategy\":\"exhaustive\""),
            std::string::npos);
}

TEST(Autotuner, WarmDatabaseReplaysWithoutSearching) {
  auto Dir = freshDir("tuner-warm");
  Kernel K = makeBadOrderCopy(16, 64);

  TunedConfig Cold;
  std::string ColdFingerprint;
  {
    TuningDb Db((Dir / "tune.db").string());
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Cold));
    EXPECT_FALSE(Cold.FromDb);
    ColdFingerprint = std::to_string(service::fingerprintOptions(Tuned));
  }
  {
    TuningDb Db((Dir / "tune.db").string());
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Warm;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Warm));
    EXPECT_TRUE(Warm.FromDb);
    // Byte-identical decision, byte-identical applied options.
    EXPECT_EQ(Warm.Encoding, Cold.Encoding);
    EXPECT_DOUBLE_EQ(Warm.PredictedTimeUs, Cold.PredictedTimeUs);
    EXPECT_EQ(std::to_string(service::fingerprintOptions(Tuned)),
              ColdFingerprint);
  }
}

TEST(Autotuner, SpaceShapeChangeInvalidatesDbEntry) {
  auto Dir = freshDir("tuner-stale");
  Kernel K = makeRunningExample(8);
  TuningDb Db((Dir / "tune.db").string());
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
  }
  // Same database, different space: the stored signature no longer
  // matches, so the tuner must re-search (FromDb=false) and overwrite.
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Space = defaultSearchSpace();
    Cfg.MaxEvaluations = 8;
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
    EXPECT_FALSE(Out.FromDb);
  }
  // And a third run under the new space replays the overwritten entry.
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Space = defaultSearchSpace();
    Cfg.MaxEvaluations = 8;
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
    EXPECT_TRUE(Out.FromDb);
  }
}

TEST(Autotuner, ConcurrentTuningOnSharedDatabase) {
  auto Dir = freshDir("tuner-concurrent");
  TuningDb Db((Dir / "tune.db").string());
  Autotuner::Config Cfg = tinyTunerConfig();
  Cfg.Db = &Db;
  Autotuner Tuner(Cfg);

  std::vector<Kernel> Kernels;
  for (Int N : {6, 8, 10, 12})
    Kernels.push_back(makeRunningExample(N));

  // Two waves of workers: the second wave must replay the first wave's
  // decisions identically.
  std::vector<TunedConfig> First(Kernels.size()), Second(Kernels.size());
  for (std::vector<TunedConfig> *Wave : {&First, &Second}) {
    std::vector<std::thread> Threads;
    for (std::size_t I = 0; I < Kernels.size(); ++I)
      Threads.emplace_back([&, I] {
        PipelineOptions Tuned;
        TunedConfig Out;
        ASSERT_TRUE(Tuner.tune(Kernels[I], Tuned, Out));
        (*Wave)[I] = Out;
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (std::size_t I = 0; I < Kernels.size(); ++I) {
    EXPECT_TRUE(Second[I].FromDb) << I;
    EXPECT_EQ(First[I].Encoding, Second[I].Encoding) << I;
    EXPECT_DOUBLE_EQ(First[I].PredictedTimeUs, Second[I].PredictedTimeUs)
        << I;
  }
}

//===----------------------------------------------------------------------===//
// GPU model presets (satellite of the tuning work: the preset is part
// of the options fingerprint, so tuned entries are per-GPU).
//===----------------------------------------------------------------------===//

TEST(GpuPresets, KnownNamesResolveAndDiffer) {
  for (const std::string &Name : gpuModelPresetNames())
    EXPECT_TRUE(gpuModelPreset(Name).has_value()) << Name;
  EXPECT_FALSE(gpuModelPreset("h100").has_value());
  EXPECT_FALSE(gpuModelPreset("").has_value());

  // v100 is the default model.
  GpuModel Default;
  std::optional<GpuModel> V100 = gpuModelPreset("v100");
  ASSERT_TRUE(V100);
  EXPECT_DOUBLE_EQ(V100->PeakBandwidthGBs, Default.PeakBandwidthGBs);

  Kernel K = makeRunningExample(8);
  PipelineOptions A, B;
  A.Gpu = *gpuModelPreset("v100");
  B.Gpu = *gpuModelPreset("a100");
  EXPECT_NE(service::fingerprintOptions(A), service::fingerprintOptions(B));
  EXPECT_NE(service::fingerprintRequest(K, A),
            service::fingerprintRequest(K, B));
}

TEST(GpuPresets, FasterGpuSimulatesFaster) {
  Kernel K = makeElementwise(64, 256);
  PipelineOptions V100, A100;
  V100.Gpu = *gpuModelPreset("v100");
  A100.Gpu = *gpuModelPreset("a100");
  double TimeV100 = predictInflTimeUs(K, V100);
  double TimeA100 = predictInflTimeUs(K, A100);
  ASSERT_TRUE(std::isfinite(TimeV100));
  ASSERT_TRUE(std::isfinite(TimeA100));
  EXPECT_LT(TimeA100, TimeV100);
}

//===----------------------------------------------------------------------===//
// Backend targets in the evaluator
//===----------------------------------------------------------------------===//

TEST(TargetScoring, EvaluatorFollowsOptionsTarget) {
  Kernel K = makeElementwise(64, 256);
  PipelineOptions Default;
  PipelineOptions Explicit;
  Explicit.Target = target::makeBuiltinTarget("v100");
  PipelineOptions Cpu;
  Cpu.Target = target::makeBuiltinTarget("cpu-simd");

  // An explicit gpu-analytic target over the default machine model is
  // the legacy path, bit for bit.
  double Base = predictInflTimeUs(K, Default);
  ASSERT_TRUE(std::isfinite(Base));
  EXPECT_EQ(predictInflTimeUs(K, Explicit), Base);

  // The cpu-simd backend scores the same schedule differently.
  double CpuUs = predictInflTimeUs(K, Cpu);
  ASSERT_TRUE(std::isfinite(CpuUs));
  EXPECT_NE(CpuUs, Base);

  // Scheduling is target-independent: the mapped kernel the evaluator
  // builds plus the target's simulate reproduces its score exactly (the
  // split tools/polyinject-calibrate relies on).
  MappedKernel M;
  ASSERT_TRUE(buildInflMappedKernel(K, Cpu, M));
  EXPECT_DOUBLE_EQ(Cpu.Target->simulate(M).TimeUs, CpuUs);
}

TEST(TargetScoring, TunedWinnerRespectsTargetFingerprint) {
  // One shared database: the same kernel tuned under two backends must
  // produce two independent entries (the request fingerprint separates
  // targets), each replayed on its own second call.
  Kernel K = makeBadOrderCopy(32, 48);
  auto Dir = freshDir("target-tune-db");
  tune::TuningDb Db((Dir / "tune.db").string());

  auto TuneUnder = [&](const PipelineOptions &Base, TunedConfig &Out) {
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = "exhaustive";
    Cfg.Space = tinySearchSpace();
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));
    PipelineOptions Tuned = Base;
    return Tuner.tune(K, Tuned, Out);
  };

  PipelineOptions GpuBase;
  PipelineOptions CpuBase;
  CpuBase.Target = target::makeBuiltinTarget("cpu-simd");

  TunedConfig GpuChosen, CpuChosen;
  ASSERT_TRUE(TuneUnder(GpuBase, GpuChosen));
  ASSERT_TRUE(TuneUnder(CpuBase, CpuChosen));
  EXPECT_FALSE(GpuChosen.FromDb);
  EXPECT_FALSE(CpuChosen.FromDb); // Distinct fingerprint: no aliasing.

  TunedConfig GpuReplay, CpuReplay;
  ASSERT_TRUE(TuneUnder(GpuBase, GpuReplay));
  ASSERT_TRUE(TuneUnder(CpuBase, CpuReplay));
  EXPECT_TRUE(GpuReplay.FromDb);
  EXPECT_TRUE(CpuReplay.FromDb);
  EXPECT_EQ(GpuReplay.Encoding, GpuChosen.Encoding);
  EXPECT_EQ(CpuReplay.Encoding, CpuChosen.Encoding);
}

} // namespace
