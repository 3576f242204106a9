//===- tests/pipeline_test.cpp - end-to-end pipeline tests ----------------===//

#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <sstream>

using namespace pinj;

TEST(Pipeline, RunningExampleEndToEnd) {
  Kernel K = makeRunningExample(64);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Validated);
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
  EXPECT_GT(R.Isl.TimeUs, 0);
  EXPECT_GT(R.Tvm.TimeUs, 0);
  // TVM pays one launch per statement.
  EXPECT_EQ(R.Tvm.Launches, 2u);
}

TEST(Pipeline, BadOrderCopyShapesLikeTransposeRow) {
  // The transpose-heavy pattern of Table II: infl beats isl clearly,
  // novec sits between, tvm (hand-tuned layout) also beats isl.
  Kernel K = makeBadOrderCopy(256, 256);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
  EXPECT_LT(R.Infl.TimeUs, R.Isl.TimeUs * 0.7);
  EXPECT_LT(R.Novec.TimeUs, R.Isl.TimeUs);
  EXPECT_LE(R.Infl.TimeUs, R.Novec.TimeUs * 1.01);
  EXPECT_LT(R.Tvm.TimeUs, R.Isl.TimeUs);
}

TEST(Pipeline, ElementwiseNearParity) {
  // Element-wise operators are already coalesced under isl: influence
  // keeps the schedule (or matches its cost) and vectorization gives at
  // most a modest gain -- the BERT-like row of Table II.
  Kernel K = makeElementwise(256, 256);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_LE(R.Infl.TimeUs, R.Isl.TimeUs * 1.05);
  EXPECT_GE(R.Infl.TimeUs, R.Isl.TimeUs * 0.5);
}

TEST(Pipeline, FusionBeatsPerStatementLaunches) {
  // A chain of element-wise statements: one fused kernel vs one launch
  // per statement; the proxy pays launch overhead and intermediate
  // traffic (the BERT 0.18x pattern).
  KernelBuilder B("chain4");
  unsigned T0 = B.tensor("T0", {64, 64});
  unsigned T1 = B.tensor("T1", {64, 64});
  unsigned T2 = B.tensor("T2", {64, 64});
  unsigned T3 = B.tensor("T3", {64, 64});
  unsigned T4 = B.tensor("T4", {64, 64});
  unsigned Prev = T0;
  for (unsigned S = 0; S != 4; ++S) {
    unsigned Next = (S == 0) ? T1 : (S == 1) ? T2 : (S == 2) ? T3 : T4;
    B.stmt("S" + std::to_string(S), {{"i", 64}, {"j", 64}})
        .write(Next, {"i", "j"})
        .read(Prev, {"i", "j"})
        .op(OpKind::Relu);
    Prev = Next;
  }
  Kernel K = B.build();
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_EQ(R.Tvm.Launches, 4u);
  EXPECT_GT(R.Tvm.TimeUs, R.Isl.TimeUs * 2.0);
}

TEST(Pipeline, ReductionValidatedAndSequentialDimRespected) {
  Kernel K = makeRowReduction(32, 64);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Validated);
  EXPECT_GT(R.Infl.TimeUs, 0);
}

TEST(Pipeline, RenderCudaProducesSource) {
  Kernel K = makeRunningExample(64);
  PipelineOptions Options;
  SchedulerResult R = scheduleInfluenced(K, Options);
  std::string Cuda = renderCuda(K, R.Sched, Options.Mapping);
  EXPECT_NE(Cuda.find("__global__"), std::string::npos);
}

TEST(Pipeline, ValidationFlagOffByDefault) {
  Kernel K = makeElementwise(8, 8);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_FALSE(R.Validated);
}

//===----------------------------------------------------------------------===//
// Property sweep: every family at several sizes is valid end to end and
// the influenced configuration never loses badly to the reference.
//===----------------------------------------------------------------------===//

class PipelineProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineProperty, InfluenceNeverFarWorse) {
  int Family = std::get<0>(GetParam());
  Int N = std::get<1>(GetParam());
  Kernel K = [&] {
    switch (Family) {
    case 0:
      return makeElementwise(N, N);
    case 1:
      return makeBadOrderCopy(N, N);
    case 2:
      return makeProducerConsumer(N, N);
    case 3:
      return makeRowReduction(N, N);
    default:
      return makeRunningExample(N);
    }
  }();
  PipelineOptions Options;
  Options.Validate = (N <= 16);
  OperatorReport R = runOperator(K, Options);
  if (Options.Validate) {
    EXPECT_TRUE(R.Validated) << K.Name;
  }
  // The influenced configuration must never regress by more than a
  // small factor (the paper reports novec as low as 0.86x per network).
  EXPECT_LE(R.Infl.TimeUs, R.Isl.TimeUs * 1.3) << K.Name;
}

INSTANTIATE_TEST_SUITE_P(Families, PipelineProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(16, 64)));

// The stats table's fallbacks column and the sched_end journal record
// count the same thing, SchedulerStats::fallbacks(), Feautrier dimensions
// included.
TEST(Pipeline, StatsTableCountsFeautrierDims) {
  Kernel K = makeProducerConsumer(8, 8);
  PipelineOptions Options;
  Options.Sched.UseFeautrierFallback = true;
  OperatorReport R = runOperator(K, Options);
  ASSERT_GE(R.Isl.Stats.FeautrierDims, 1u);
  std::istringstream Table(printStatsTable(R));
  std::map<std::string, unsigned long long> Column;
  for (std::string Line; std::getline(Table, Line);) {
    std::istringstream Row(Line);
    std::vector<std::string> Cells{std::istream_iterator<std::string>(Row),
                                   std::istream_iterator<std::string>()};
    if (Cells.size() == 7 && Cells[0] != "config")
      Column[Cells[0]] = std::stoull(Cells[6]);
  }
  for (auto [Name, C] : {std::pair<const char *, const ConfigResult *>(
                             "isl", &R.Isl),
                         {"novec", &R.Novec},
                         {"infl", &R.Infl}}) {
    ASSERT_EQ(Column.count(Name), 1u) << Name;
    EXPECT_EQ(Column[Name], C->Stats.fallbacks()) << Name;
    EXPECT_GE(Column[Name], C->Stats.FeautrierDims) << Name;
  }
}

namespace {

/// An in-memory compilation cache keyed by operator name.
class MapCache : public CompilationCacheHook {
public:
  bool lookup(const Kernel &K, const PipelineOptions &,
              CachedCompilation &Out) override {
    auto It = Entries.find(K.Name);
    if (It == Entries.end())
      return false;
    Out = It->second;
    return true;
  }
  void store(const Kernel &K, const PipelineOptions &,
             const CachedCompilation &C) override {
    Entries[K.Name] = C;
  }

private:
  std::map<std::string, CachedCompilation> Entries;
};

std::uint64_t dependenceRuns() {
  return obs::metrics().counter("poly.dependence_runs").value();
}

} // namespace

// The isl and influenced scheduler runs and the infl vector pass share
// one analysis; the tvm proxy still analyses each statement on its own.
TEST(Pipeline, OneDependenceAnalysisPerCompilation) {
  Kernel K = makeRunningExample(64);
  MapCache Cache;
  PipelineOptions Options;
  Options.Cache = &Cache;

  std::uint64_t Before = dependenceRuns();
  OperatorReport Miss = runOperator(K, Options);
  ASSERT_FALSE(Miss.CacheHit);
  ASSERT_FALSE(Miss.degraded());
  EXPECT_EQ(dependenceRuns() - Before, 1 + K.Stmts.size());

  Before = dependenceRuns();
  OperatorReport Hit = runOperator(K, Options);
  ASSERT_TRUE(Hit.CacheHit);
  EXPECT_EQ(dependenceRuns() - Before, K.Stmts.size());

  Before = dependenceRuns();
  Schedule Infl;
  EXPECT_TRUE(scheduleInflConfig(K, PipelineOptions(), Infl));
  EXPECT_EQ(dependenceRuns() - Before, 1u);
  EXPECT_EQ(Infl, Miss.Infl.Sched);
}

// An Overflow raised inside the shared analysis (here: access
// coefficients near 2^61) still ends as one attributed degradation per
// scheduled configuration, each on the original program order.
TEST(Pipeline, OverflowInSharedAnalysisDegradesEveryConfig) {
  KernelBuilder B("overflow");
  unsigned A = B.tensor("A", {64});
  unsigned O = B.tensor("O", {64});
  B.stmt("S", {{"i", 64}}).write(O, {"i"}).read(A, {"i"}).op(OpKind::Assign);
  B.stmt("T", {{"i", 64}}).write(A, {"i"}).read(O, {"i"}).op(OpKind::Assign);
  Kernel K = B.build();
  for (Statement &S : K.Stmts) {
    S.Write.Indices[0][0] = Int(1) << 61;
    S.Reads[0].Indices[0][0] = (Int(1) << 61) - 1;
  }
  try {
    computeDependences(K);
    FAIL() << "the analysis did not overflow";
  } catch (const RecoverableError &E) {
    ASSERT_EQ(E.status().code(), StatusCode::Overflow);
  }
  OperatorReport R = runOperator(K, PipelineOptions());
  const Schedule Original = originalSchedule(K);
  for (auto [Name, C] : {std::pair<const char *, const ConfigResult *>(
                             "isl", &R.Isl),
                         {"novec", &R.Novec},
                         {"infl", &R.Infl}}) {
    EXPECT_EQ(C->Outcome.code(), StatusCode::Overflow) << Name;
    EXPECT_EQ(C->Sched.Transforms, Original.Transforms) << Name;
    unsigned Records = 0;
    for (const DegradationEvent &E : R.Degradations)
      Records += E.Config == Name && E.Code == StatusCode::Overflow;
    EXPECT_EQ(Records, 1u) << Name;
  }
}
