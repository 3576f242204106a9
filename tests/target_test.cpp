//===- tests/target_test.cpp - Backend target subsystem tests -------------===//

#include "target/Calibrate.h"
#include "target/CpuSimdTarget.h"
#include "target/GpuAnalyticTarget.h"
#include "target/Target.h"

#include "baselines/TvmProxy.h"
#include "codegen/Vectorizer.h"
#include "ir/Builder.h"
#include "influence/TreeBuilder.h"
#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "sched/Scheduler.h"
#include "TestKernels.h"
#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace pinj;
using namespace pinj::target;

namespace {

MappedKernel mapBaseline(const Kernel &K) {
  SchedulerOptions O;
  O.SerializeSccs = true;
  SchedulerResult R = scheduleKernel(K, O);
  return mapToGpu(K, R.Sched);
}

MappedKernel mapInfluenced(const Kernel &K) {
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  finalizeVectorMarks(K, R.Sched, /*StripVectors=*/false);
  return mapToGpu(K, R.Sched);
}

void expectSimBitIdentical(const KernelSim &A, const KernelSim &B,
                           const std::string &What) {
  EXPECT_EQ(A.TimeUs, B.TimeUs) << What;
  EXPECT_EQ(A.MemTimeUs, B.MemTimeUs) << What;
  EXPECT_EQ(A.ComputeTimeUs, B.ComputeTimeUs) << What;
  EXPECT_EQ(A.Transactions, B.Transactions) << What;
  EXPECT_EQ(A.TransactionBytes, B.TransactionBytes) << What;
  EXPECT_EQ(A.UsefulBytes, B.UsefulBytes) << What;
  EXPECT_EQ(A.MemInstructions, B.MemInstructions) << What;
  EXPECT_EQ(A.ComputeInstructions, B.ComputeInstructions) << What;
  EXPECT_EQ(A.Warps, B.Warps) << What;
}

void expectParamsBitIdentical(const TargetModel &A, const TargetModel &B) {
  EXPECT_EQ(A.kind(), B.kind());
  std::vector<TargetParam> Pa = A.params(), Pb = B.params();
  ASSERT_EQ(Pa.size(), Pb.size());
  for (unsigned I = 0; I != Pa.size(); ++I) {
    EXPECT_EQ(Pa[I].Name, Pb[I].Name);
    EXPECT_EQ(Pa[I].Value, Pb[I].Value) << Pa[I].Name;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(TargetRegistry, BuiltinNamesAndKinds) {
  std::vector<std::string> Names = builtinTargetNames();
  for (const char *Expected : {"v100", "a100", "p100", "cpu-simd"})
    EXPECT_NE(std::find(Names.begin(), Names.end(), Expected), Names.end())
        << Expected;

  for (const std::string &N : Names) {
    std::shared_ptr<TargetModel> T = makeBuiltinTarget(N);
    ASSERT_TRUE(T) << N;
    EXPECT_EQ(T->name(), N);
    EXPECT_EQ(T->kind(), N == "cpu-simd" ? CpuSimdKind : GpuAnalyticKind);
    // resolveTarget accepts every built-in name.
    std::string Err;
    EXPECT_TRUE(resolveTarget(N, &Err)) << Err;
  }

  // Fresh instances of both kinds; unknown kinds refused.
  EXPECT_TRUE(makeTargetOfKind(GpuAnalyticKind));
  EXPECT_TRUE(makeTargetOfKind(CpuSimdKind));
  EXPECT_FALSE(makeTargetOfKind("tpu-systolic"));
  EXPECT_FALSE(makeBuiltinTarget("h100"));
}

TEST(TargetRegistry, UnknownTargetDiagnosticListsAvailable) {
  std::string Err;
  EXPECT_FALSE(resolveTarget("no-such-target", &Err));
  EXPECT_NE(Err.find("no-such-target"), std::string::npos) << Err;
  // The diagnostic must enumerate what --target/--gpu accept.
  for (const std::string &N : builtinTargetNames())
    EXPECT_NE(Err.find(N), std::string::npos) << Err;
  EXPECT_NE(Err.find(".ptgt"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// GPU differential: the refactor must be bit-identical
//===----------------------------------------------------------------------===//

// The tentpole's behavior-preservation gate: over the full tuning bench
// corpus and every GPU preset, GpuAnalyticTarget must reproduce the
// pre-subsystem simulateKernel result bit for bit, on both the baseline
// and the influenced+vectorized mapping.
TEST(TargetDifferential, GpuAnalyticMatchesSimulateKernelBitExactly) {
  std::vector<Kernel> Corpus = tuneBenchCorpus(0);
  ASSERT_GE(Corpus.size(), 20u);
  std::vector<std::string> Presets = gpuModelPresetNames();
  ASSERT_EQ(Presets.size(), 3u);

  for (const Kernel &K : Corpus) {
    MappedKernel Base = mapBaseline(K);
    MappedKernel Infl = mapInfluenced(K);
    for (const std::string &P : Presets) {
      GpuModel Model = *gpuModelPreset(P);
      GpuAnalyticTarget T(Model);
      expectSimBitIdentical(T.simulate(Base), simulateKernel(Base, Model),
                            K.Name + "/" + P + "/baseline");
      expectSimBitIdentical(T.simulate(Infl), simulateKernel(Infl, Model),
                            K.Name + "/" + P + "/influenced");
    }
  }
}

// Both simulateTvmProxy overloads must score the same launches: over
// the corpus and every GPU preset, the GpuModel form and the
// GpuAnalyticTarget form agree bit for bit. The corpus reads share their
// write's layout, so the transpose OUT[i][j] = IN[j][i] is added to
// cover the shared-memory tile rewrite.
TEST(TargetDifferential, TvmProxyOverloadsAgreeBitExactly) {
  std::vector<Kernel> Kernels = tuneBenchCorpus(0);
  ASSERT_GE(Kernels.size(), 20u);
  KernelBuilder B("transpose");
  unsigned In = B.tensor("IN", {512, 512});
  unsigned Out = B.tensor("OUT", {512, 512});
  B.stmt("T", {{"i", 512}, {"j", 512}})
      .write(Out, {"i", "j"})
      .read(In, {"j", "i"})
      .op(OpKind::Assign);
  Kernels.push_back(B.build());

  for (const Kernel &K : Kernels) {
    for (const std::string &P : gpuModelPresetNames()) {
      GpuModel Model = *gpuModelPreset(P);
      TvmProxyResult ViaTarget =
          simulateTvmProxy(K, GpuAnalyticTarget(Model), GpuMappingOptions());
      TvmProxyResult ViaModel =
          simulateTvmProxy(K, Model, GpuMappingOptions());
      std::string What = K.Name + "/" + P;
      EXPECT_EQ(ViaTarget.TimeUs, ViaModel.TimeUs) << What;
      EXPECT_EQ(ViaTarget.Launches, ViaModel.Launches) << What;
      expectSimBitIdentical(ViaTarget.Aggregate, ViaModel.Aggregate, What);
      if (&K == &Kernels.back()) // The tile moves only the useful bytes.
        EXPECT_EQ(ViaTarget.Aggregate.TransactionBytes,
                  ViaTarget.Aggregate.UsefulBytes)
            << What;
    }
  }
}

//===----------------------------------------------------------------------===//
// Transaction/time split
//===----------------------------------------------------------------------===//

TEST(TargetModelTest, SimulateComposesFromCountersAndTime) {
  Kernel K = makeBadOrderCopy(64, 128);
  MappedKernel M = mapInfluenced(K);
  for (const std::string &N : builtinTargetNames()) {
    std::shared_ptr<TargetModel> T = makeBuiltinTarget(N);
    ASSERT_TRUE(T);
    expectSimBitIdentical(T->simulate(M),
                          T->finishTime(T->accumulateCounters(M)), N);
  }
}

TEST(TargetModelTest, CountersIndependentOfTimeConstants) {
  Kernel K = makeElementwise(64, 256);
  MappedKernel M = mapInfluenced(K);
  std::shared_ptr<TargetModel> Base = makeBuiltinTarget("cpu-simd");
  std::shared_ptr<TargetModel> Fast = Base->clone();
  ASSERT_TRUE(Fast->setParam("PeakBandwidthGBs", 160.0));
  ASSERT_TRUE(Fast->setParam("LaunchOverheadUs", 1.0));

  // Time-model constants must not leak into the counters...
  KernelSim A = Base->accumulateCounters(M);
  KernelSim B = Fast->accumulateCounters(M);
  expectSimBitIdentical(A, B, "counters");
  EXPECT_EQ(A.TimeUs, 0.0);

  // ...while finishTime follows them.
  EXPECT_LT(Fast->finishTime(A).TimeUs, Base->finishTime(A).TimeUs);
}

TEST(TargetModelTest, CpuSimdIsStructurallyDifferent) {
  Kernel K = makeElementwise(128, 256);
  MappedKernel M = mapInfluenced(K);
  std::shared_ptr<TargetModel> Cpu = makeBuiltinTarget("cpu-simd");
  std::shared_ptr<TargetModel> Gpu = makeBuiltinTarget("v100");

  // Different lane grouping and transaction granularity: the counters
  // themselves differ, not just the constants applied to them.
  KernelSim Cc = Cpu->accumulateCounters(M);
  KernelSim Gc = Gpu->accumulateCounters(M);
  EXPECT_NE(Cc.Transactions, Gc.Transactions);
  EXPECT_NE(Cc.Warps, Gc.Warps);

  // Additive time: Time = Launch + Mem + Compute (the GPU takes the max).
  KernelSim Ct = Cpu->finishTime(Cc);
  const CpuSimdModel &Model =
      static_cast<const CpuSimdTarget &>(*Cpu).model();
  EXPECT_DOUBLE_EQ(Ct.TimeUs,
                   Model.LaunchOverheadUs + Ct.MemTimeUs + Ct.ComputeTimeUs);

  // Saturation ramps with the streamed bytes, not with warps in flight:
  // scaling Warps alone must not move the CPU memory time.
  KernelSim MoreWarps = Cc;
  MoreWarps.Warps *= 16;
  EXPECT_EQ(Cpu->finishTime(MoreWarps).MemTimeUs, Ct.MemTimeUs);
}

//===----------------------------------------------------------------------===//
// .ptgt files
//===----------------------------------------------------------------------===//

TEST(PtgtFile, SerializeParseRoundTripsBitExactly) {
  for (const std::string &N : builtinTargetNames()) {
    std::shared_ptr<TargetModel> T = makeBuiltinTarget(N);
    // Displace one constant to a non-default value with a long mantissa.
    ASSERT_TRUE(T->setParam("PeakBandwidthGBs", 123.45678901234567));
    std::string Text = serializeTarget(*T);
    std::string Err;
    std::shared_ptr<TargetModel> Back = parseTarget(Text, &Err);
    ASSERT_TRUE(Back) << N << ": " << Err;
    EXPECT_EQ(Back->name(), T->name());
    expectParamsBitIdentical(*T, *Back);
    // Canonical form: re-serializing the parse is byte-identical.
    EXPECT_EQ(serializeTarget(*Back), Text);
  }
}

TEST(PtgtFile, RejectsCorruptTextAndCountsRejects) {
  std::shared_ptr<TargetModel> T = makeBuiltinTarget("cpu-simd");
  std::string Good = serializeTarget(*T);
  ASSERT_TRUE(parseTarget(Good));

  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string Out = Good;
    std::size_t At = Out.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    Out.replace(At, From.size(), To);
    return Out;
  };

  std::vector<std::pair<const char *, std::string>> Corrupt = {
      {"version bump", Replaced("polyinject-target v1",
                                "polyinject-target v9")},
      {"unknown kind", Replaced("kind cpu-simd", "kind npu-dataflow")},
      {"stale param count", Replaced("params 8", "params 7")},
      {"unknown param", Replaced("param SimdLanes", "param VectorLanes")},
      {"malformed number",
       Replaced("param PeakBandwidthGBs 80", "param PeakBandwidthGBs abc")},
      {"truncation", Good.substr(0, Good.size() / 2)},
      {"missing end", Replaced("end\n", "")},
      {"duplicate param",
       Replaced("param CacheLineBytes 64", "param SimdLanes 16")},
  };
  for (const auto &[What, Text] : Corrupt) {
    obs::MetricsSnapshot Before = obs::metrics().snapshot();
    std::string Err;
    EXPECT_FALSE(parseTarget(Text, &Err)) << What;
    EXPECT_FALSE(Err.empty()) << What;
    obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
    EXPECT_EQ(D.counter("target.rejects"), 1u) << What;
  }
}

TEST(PtgtFile, SaveLoadRoundTripsAndNamesFromFile) {
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "/target_test_roundtrip.ptgt";

  std::shared_ptr<TargetModel> T = makeTargetOfKind(CpuSimdKind);
  ASSERT_TRUE(T->setParam("HalfSaturationBytes", 123456.0));
  T->rename("tuned-socket");
  std::string Err;
  ASSERT_TRUE(saveTargetFile(*T, Path, &Err)) << Err;

  std::shared_ptr<TargetModel> Back = loadTargetFile(Path, &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->name(), "tuned-socket");
  expectParamsBitIdentical(*T, *Back);
  // resolveTarget accepts a file path spec too.
  EXPECT_TRUE(resolveTarget(Path, &Err)) << Err;

  // An unnamed target picks up the file stem on load.
  std::string Anon = Dir + "/socket-a.ptgt";
  std::shared_ptr<TargetModel> NoName = makeTargetOfKind(CpuSimdKind);
  ASSERT_TRUE(saveTargetFile(*NoName, Anon, &Err)) << Err;
  std::shared_ptr<TargetModel> Stem = loadTargetFile(Anon, &Err);
  ASSERT_TRUE(Stem) << Err;
  EXPECT_EQ(Stem->name(), "socket-a");
  std::remove(Path.c_str());
  std::remove(Anon.c_str());
}

//===----------------------------------------------------------------------===//
// Target identity (dataset stamping)
//===----------------------------------------------------------------------===//

TEST(TargetIdentity, IdCoversKindAndConstantsNotName) {
  PipelineOptions Default;
  std::string NullId = targetIdForOptions(Default);
  EXPECT_EQ(NullId.find("gpu-analytic-"), 0u) << NullId;

  // Null Target canonicalizes to the GPU analytic backend over O.Gpu.
  PipelineOptions Explicit;
  Explicit.Target = std::make_shared<GpuAnalyticTarget>(Explicit.Gpu);
  EXPECT_EQ(targetIdForOptions(Explicit), NullId);

  // The display name is not identity.
  auto Renamed = std::make_shared<GpuAnalyticTarget>(Default.Gpu);
  Renamed->rename("my-v100");
  PipelineOptions WithName;
  WithName.Target = Renamed;
  EXPECT_EQ(targetIdForOptions(WithName), NullId);

  // Kind and constants are.
  PipelineOptions Cpu;
  Cpu.Target = makeBuiltinTarget("cpu-simd");
  EXPECT_NE(targetIdForOptions(Cpu), NullId);
  EXPECT_EQ(targetIdForOptions(Cpu).find("cpu-simd-"), 0u);

  PipelineOptions Tweaked;
  std::shared_ptr<TargetModel> T = makeBuiltinTarget("v100")->clone();
  ASSERT_TRUE(T->setParam("PeakBandwidthGBs", 901.0));
  Tweaked.Target = std::move(T);
  EXPECT_NE(targetIdForOptions(Tweaked), NullId);
}

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

namespace {

// Synthetic measured rows spanning the regimes that identify each
// fitted cpu-simd constant: bytes across the prefetch ramp
// (HalfSaturationBytes), tiny rows (LaunchOverheadUs), saturated wide
// rows (PeakBandwidthGBs), narrow-lane rows (NarrowAccessEfficiency)
// and compute-dominated rows (IssueRateGops).
std::vector<CalibrationSample> syntheticRows(const TargetModel &Truth) {
  std::vector<CalibrationSample> Rows;
  for (double KiB : {16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    for (double BytesPerLane : {4.0, 16.0}) {
      for (double ComputeFactor : {0.0, 1000.0}) {
        KernelSim C;
        C.TransactionBytes = KiB * 1024.0;
        C.Transactions = C.TransactionBytes / 64.0;
        C.UsefulBytes = C.TransactionBytes * 0.9;
        C.MemInstructions = C.UsefulBytes / BytesPerLane;
        C.ComputeInstructions = C.MemInstructions * ComputeFactor;
        C.Warps = 64;
        Rows.push_back({C, Truth.finishTime(C).TimeUs});
      }
    }
  }
  return Rows;
}

// The truth target with every fitted constant displaced (alternating
// up/down) — the calibration starting point.
std::shared_ptr<TargetModel>
displacedStart(const TargetModel &Truth,
               const std::vector<std::string> &FitNames) {
  std::shared_ptr<TargetModel> Start = Truth.clone();
  bool Up = true;
  for (const std::string &N : FitNames) {
    double Current = 0;
    for (const TargetParam &P : Truth.params())
      if (P.Name == N)
        Current = P.Value;
    EXPECT_TRUE(Start->setParam(N, Current * (Up ? 1.7 : 0.6))) << N;
    Up = !Up;
  }
  return Start;
}

} // namespace

TEST(Calibration, RecoversSyntheticCpuSimdConstants) {
  CpuSimdTarget Truth;
  std::vector<CalibrationSample> Rows = syntheticRows(Truth);
  std::vector<std::string> FitNames = defaultFitParams(CpuSimdKind);
  ASSERT_GE(FitNames.size(), 4u);

  std::shared_ptr<TargetModel> Fit = displacedStart(Truth, FitNames);
  CalibrationResult R = fitTargetParams(*Fit, Rows, FitNames);
  EXPECT_LT(R.RmsLogError, 0.01);
  ASSERT_EQ(R.Fitted.size(), FitNames.size());

  // The acceptance bar: every fitted constant within 5% of the
  // generating value.
  for (const TargetParam &P : R.Fitted) {
    double TruthValue = 0;
    for (const TargetParam &Q : Truth.params())
      if (Q.Name == P.Name)
        TruthValue = Q.Value;
    ASSERT_GT(TruthValue, 0.0) << P.Name;
    EXPECT_LE(std::abs(P.Value - TruthValue), 0.05 * TruthValue)
        << P.Name << " fitted " << P.Value << " vs " << TruthValue;
  }
}

TEST(Calibration, DeterministicAcrossRuns) {
  CpuSimdTarget Truth;
  std::vector<CalibrationSample> Rows = syntheticRows(Truth);
  std::vector<std::string> FitNames = defaultFitParams(CpuSimdKind);

  std::shared_ptr<TargetModel> A = displacedStart(Truth, FitNames);
  std::shared_ptr<TargetModel> B = displacedStart(Truth, FitNames);
  CalibrationResult Ra = fitTargetParams(*A, Rows, FitNames);
  CalibrationResult Rb = fitTargetParams(*B, Rows, FitNames);

  EXPECT_EQ(Ra.RmsLogError, Rb.RmsLogError);
  EXPECT_EQ(Ra.SweepsRun, Rb.SweepsRun);
  expectParamsBitIdentical(*A, *B);
  EXPECT_EQ(serializeTarget(*A), serializeTarget(*B));
}

TEST(Calibration, DefaultFitParamsMatchEachKind) {
  for (const char *Kind : {GpuAnalyticKind, CpuSimdKind}) {
    std::vector<std::string> Names = defaultFitParams(Kind);
    EXPECT_FALSE(Names.empty()) << Kind;
    std::shared_ptr<TargetModel> T = makeTargetOfKind(Kind);
    // Every default-fitted constant must exist on the kind (setParam at
    // its current value succeeds).
    for (const std::string &N : Names) {
      double Current = -1;
      for (const TargetParam &P : T->params())
        if (P.Name == N)
          Current = P.Value;
      ASSERT_GT(Current, 0.0) << Kind << "/" << N;
      EXPECT_TRUE(T->setParam(N, Current)) << Kind << "/" << N;
    }
  }
  // The memory-bound GPU corpus leaves the issue rate unidentifiable;
  // the additive CPU model exposes it.
  std::vector<std::string> Gpu = defaultFitParams(GpuAnalyticKind);
  std::vector<std::string> Cpu = defaultFitParams(CpuSimdKind);
  EXPECT_EQ(std::find(Gpu.begin(), Gpu.end(), "IssueRateGops"), Gpu.end());
  EXPECT_NE(std::find(Cpu.begin(), Cpu.end(), "IssueRateGops"), Cpu.end());
}
