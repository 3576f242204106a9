//===- tests/service_test.cpp - Compilation service tests -----------------===//
//
// Covers src/service/: fingerprint stability and divergence, schedule
// (de)serialization round-trips over every shared test kernel, the
// LRU/disk cache (hits byte-identical, eviction, options mismatch,
// corrupt entries degrade to misses), the batch compiler's determinism
// across worker counts, and the thread safety of the obs metrics
// registry and tracer. This executable is the one the thread-sanitizer
// CTest configuration runs.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pipeline/Pipeline.h"
#include "sched/Schedule.h"
#include "service/BatchCompiler.h"
#include "service/Cache.h"
#include "service/Fingerprint.h"
#include "target/GpuAnalyticTarget.h"
#include "target/Target.h"

#include "TestKernels.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "gtest/gtest.h"

using namespace pinj;
using namespace pinj::service;

namespace {

/// Every kernel in tests/TestKernels.h, small shapes.
std::vector<Kernel> allTestKernels() {
  std::vector<Kernel> Kernels;
  Kernels.push_back(makeRunningExample(6));
  Kernels.push_back(makeElementwise(8, 10));
  Kernels.push_back(makeTranspose(8, 6));
  Kernels.push_back(makeProducerConsumer(6, 8));
  Kernels.push_back(makeBadOrderCopy(6, 8));
  Kernels.push_back(makeRowReduction(6, 8));
  return Kernels;
}

/// A fresh per-test directory under the gtest temp root.
std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

CachedCompilation entryFromReport(const OperatorReport &R) {
  CachedCompilation E;
  E.Isl = R.Isl.Sched;
  E.Novec = R.Novec.Sched;
  E.Infl = R.Infl.Sched;
  E.Influenced = R.Influenced;
  E.VecEligible = R.VecEligible;
  return E;
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, DeterministicAndNameErased) {
  Kernel A = makeRunningExample(8);
  Kernel B = makeRunningExample(8);
  EXPECT_EQ(fingerprintKernel(A), fingerprintKernel(B));

  // Renaming the kernel, tensors, statements and iterators must not
  // change the structural hash.
  B.Name = "other_name";
  for (Tensor &T : B.Tensors)
    T.Name += "_renamed";
  for (Statement &S : B.Stmts) {
    S.Name += "_renamed";
    for (std::string &I : S.IterNames)
      I += "x";
  }
  EXPECT_EQ(fingerprintKernel(A), fingerprintKernel(B));
  EXPECT_EQ(fingerprintKernel(A).str(), fingerprintKernel(B).str());
  EXPECT_EQ(32u, fingerprintKernel(A).str().size());
}

TEST(FingerprintTest, StructureChangesHash) {
  Kernel Base = makeRunningExample(8);
  Fingerprint FP = fingerprintKernel(Base);

  // Extents.
  EXPECT_NE(FP, fingerprintKernel(makeRunningExample(9)));

  // Op kind.
  Kernel OpChanged = makeRunningExample(8);
  OpChanged.Stmts[0].Kind = OpKind::Exp;
  EXPECT_NE(FP, fingerprintKernel(OpChanged));

  // Access structure (read a transposed element).
  Kernel AccessChanged = makeRunningExample(8);
  std::swap(AccessChanged.Stmts[0].Reads[0].Indices[0],
            AccessChanged.Stmts[0].Reads[0].Indices[1]);
  EXPECT_NE(FP, fingerprintKernel(AccessChanged));

  // Element width.
  Kernel WidthChanged = makeRunningExample(8);
  WidthChanged.Tensors[0].ElemBytes = 2;
  EXPECT_NE(FP, fingerprintKernel(WidthChanged));

  // Statement order (betas included in the hash).
  Kernel OrderChanged = makeRunningExample(8);
  std::swap(OrderChanged.Stmts[0].OrigBeta, OrderChanged.Stmts[1].OrigBeta);
  EXPECT_NE(FP, fingerprintKernel(OrderChanged));

  // Distinct kernels of the shared set are pairwise distinct.
  std::vector<Kernel> Kernels = allTestKernels();
  for (unsigned I = 0; I != Kernels.size(); ++I)
    for (unsigned J = I + 1; J != Kernels.size(); ++J)
      EXPECT_NE(fingerprintKernel(Kernels[I]), fingerprintKernel(Kernels[J]))
          << Kernels[I].Name << " vs " << Kernels[J].Name;
}

TEST(FingerprintTest, OptionsChangeRequestHash) {
  Kernel K = makeElementwise(8, 8);
  PipelineOptions Base;
  Fingerprint FP = fingerprintRequest(K, Base);

  PipelineOptions Sched = Base;
  Sched.Sched.CoeffBound += 1;
  EXPECT_NE(FP, fingerprintRequest(K, Sched));

  PipelineOptions Weights = Base;
  Weights.Influence.Weights.W1 += 0.5;
  EXPECT_NE(FP, fingerprintRequest(K, Weights));

  PipelineOptions Budget = Base;
  Budget.Budget.MaxPivots = 12345;
  EXPECT_NE(FP, fingerprintRequest(K, Budget));

  PipelineOptions Gpu = Base;
  std::shared_ptr<target::TargetModel> Wide = Base.Target->clone();
  ASSERT_TRUE(Wide->setParam("WarpSize", 64));
  Gpu.Target = Wide;
  EXPECT_NE(FP, fingerprintRequest(K, Gpu));

  // The sink and cache hooks are plumbing, not compilation inputs.
  PipelineOptions Plumbing = Base;
  obs::ReportSink Sink;
  ScheduleCache Cache;
  Plumbing.Sink = &Sink;
  Plumbing.Cache = &Cache;
  EXPECT_EQ(FP, fingerprintRequest(K, Plumbing));
}

namespace {

// Compile-time checklist that fingerprintOptions covers the whole of
// PipelineOptions: this mirror repeats its members field for field.
// Adding a field to PipelineOptions breaks the size assertion below;
// to fix it, add the field here AND either a sensitivity case in
// EveryPipelineOptionFieldIsHashed or an explicit exclusion case (and
// teach service/Fingerprint.cpp about it).
struct PipelineOptionsMirror {
  SchedulerOptions Sched;
  InfluenceOptions Influence;
  GpuMappingOptions Mapping;
  std::shared_ptr<const target::TargetModel> Target;
  bool Validate;
  SolverBudget Budget;
  obs::ReportSink *Sink;
  CompilationCacheHook *Cache;
  TuningHook *Tuner;
};
static_assert(sizeof(PipelineOptionsMirror) == sizeof(PipelineOptions),
              "PipelineOptions changed: update the fingerprint coverage "
              "checklist in service_test.cpp and service/Fingerprint.cpp");

} // namespace

TEST(FingerprintTest, EveryPipelineOptionFieldIsHashed) {
  const std::uint64_t Base = fingerprintOptions(PipelineOptions());
  unsigned Case = 0;
  auto Sensitive = [&](auto Mutate) {
    PipelineOptions O;
    Mutate(O);
    EXPECT_NE(Base, fingerprintOptions(O)) << "leaf case " << Case;
    ++Case;
  };

  // SchedulerOptions.
  Sensitive([](PipelineOptions &O) { O.Sched.CoeffBound += 1; });
  Sensitive([](PipelineOptions &O) { O.Sched.ConstBound += 1; });
  Sensitive([](PipelineOptions &O) { O.Sched.ProximityIncludesInput = true; });
  Sensitive([](PipelineOptions &O) { O.Sched.SerializeSccs = true; });
  Sensitive([](PipelineOptions &O) { O.Sched.PreferOriginalOrder = false; });
  Sensitive([](PipelineOptions &O) { O.Sched.UseFeautrierFallback = true; });
  Sensitive([](PipelineOptions &O) { O.Sched.MaxDims += 1; });
  Sensitive([](PipelineOptions &O) { O.Sched.Budget.MaxPivots = 7; });
  Sensitive([](PipelineOptions &O) { O.Sched.Budget.MaxIlpNodes = 7; });
  Sensitive([](PipelineOptions &O) { O.Sched.Budget.WallMs = 7.0; });
  // InfluenceOptions.
  Sensitive([](PipelineOptions &O) { O.Influence.Weights.W1 += 0.25; });
  Sensitive([](PipelineOptions &O) { O.Influence.Weights.W2 += 0.25; });
  Sensitive([](PipelineOptions &O) { O.Influence.Weights.W3 += 0.25; });
  Sensitive([](PipelineOptions &O) { O.Influence.Weights.W4 += 0.25; });
  Sensitive([](PipelineOptions &O) { O.Influence.Weights.W5 += 0.25; });
  Sensitive([](PipelineOptions &O) {
    O.Influence.Weights.PaperFormulaThreadTerm =
        !O.Influence.Weights.PaperFormulaThreadTerm;
  });
  Sensitive([](PipelineOptions &O) { O.Influence.ThreadLimit += 32; });
  Sensitive([](PipelineOptions &O) { O.Influence.MaxScenarios += 1; });
  Sensitive([](PipelineOptions &O) { O.Influence.MaxInnerDims += 1; });
  Sensitive([](PipelineOptions &O) { O.Influence.MaxVectorWidth = 2; });
  // GpuMappingOptions.
  Sensitive([](PipelineOptions &O) { O.Mapping.MaxThreadsPerBlock = 256; });
  // Target: every constant of the default gpu-analytic target, each set
  // on a clone of it, reaches the hash...
  auto SensitiveParam = [&](const char *Name, double Value) {
    Sensitive([&](PipelineOptions &O) {
      std::shared_ptr<target::TargetModel> T = O.Target->clone();
      ASSERT_TRUE(T->setParam(Name, Value)) << Name;
      O.Target = T;
    });
  };
  ASSERT_EQ(PipelineOptions().Target->params().size(), 9u);
  SensitiveParam("WarpSize", 64);
  SensitiveParam("SectorBytes", 64);
  SensitiveParam("PeakBandwidthGBs", 901.0);
  SensitiveParam("IssueRateGops", 4001.0);
  SensitiveParam("LaunchOverheadUs", 5.0);
  SensitiveParam("OutstandingRequestsPerWarp", 7.0);
  SensitiveParam("HalfSaturationBytes", 96.0 * 1024.0 + 1.0);
  SensitiveParam("MinEfficiency", 0.03);
  SensitiveParam("NarrowAccessEfficiency", 0.86);
  // ...and so does a different backend.
  Sensitive([](PipelineOptions &O) {
    O.Target = target::makeBuiltinTarget("cpu-simd");
  });
  // Validate + whole-operator budget.
  Sensitive([](PipelineOptions &O) { O.Validate = true; });
  Sensitive([](PipelineOptions &O) { O.Budget.MaxPivots = 9; });
  Sensitive([](PipelineOptions &O) { O.Budget.MaxIlpNodes = 9; });
  Sensitive([](PipelineOptions &O) { O.Budget.WallMs = 9.0; });

  // A fresh v100 target hashes like the shared default, so
  // `--target=v100` and the defaults share cache entries.
  PipelineOptions Canonical;
  Canonical.Target = target::makeBuiltinTarget("v100");
  EXPECT_EQ(Base, fingerprintOptions(Canonical));
  // The display name is not identity.
  auto Named = std::make_shared<target::GpuAnalyticTarget>(GpuModel());
  Named->rename("my-gpu");
  PipelineOptions WithName;
  WithName.Target = Named;
  EXPECT_EQ(Base, fingerprintOptions(WithName));

  // Excluded plumbing: Sink, Cache and Tuner do not change the result.
  PipelineOptions Plumbing;
  obs::ReportSink Sink;
  ScheduleCache Cache;
  Plumbing.Sink = &Sink;
  Plumbing.Cache = &Cache;
  EXPECT_EQ(Base, fingerprintOptions(Plumbing));
}

namespace {

// Compile-time checklist that fingerprintInfluenceTree covers every
// InfluenceNode field, in the style of PipelineOptionsMirror above.
struct InfluenceNodeMirror {
  unsigned Depth;
  std::vector<InfluenceConstraint> Constraints;
  std::vector<InfluenceObjective> Objectives;
  bool RequireParallel;
  std::string Label;
  std::vector<unsigned> VectorStmts;
  unsigned VectorWidth;
  InfluenceNode *Parent;
  std::vector<std::unique_ptr<InfluenceNode>> Children;
};
static_assert(sizeof(InfluenceNodeMirror) == sizeof(InfluenceNode),
              "InfluenceNode changed: update fingerprintInfluenceTree and "
              "InfluenceTreeFingerprintCoversEveryNodeField");

} // namespace

TEST(FingerprintTest, InfluenceTreeFingerprintCoversEveryNodeField) {
  Kernel K = makeRunningExample(8);
  // The built tree plus one injected objective, so objective terms have
  // something to differ in.
  auto Fingerprint = [&](auto Mutate, std::string *Str = nullptr) {
    InfluenceTree T = buildInfluenceTree(K, InfluenceOptions());
    InfluenceNode &First = *T.firstScenario();
    First.Objectives.push_back({{{0, 0, 0, 1}}});
    Mutate(T, First);
    if (Str)
      *Str = T.str(K);
    return fingerprintInfluenceTree(T);
  };
  std::string BaseStr;
  const service::Fingerprint Base =
      Fingerprint([](InfluenceTree &, InfluenceNode &) {}, &BaseStr);
  EXPECT_EQ(Base, Fingerprint([](InfluenceTree &, InfluenceNode &) {}));

  // The three fields the rendering omits or may not show: str() cannot
  // tell these trees apart, the fingerprint must.
  std::string Str;
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.RequireParallel = true;
            }, &Str));
  EXPECT_EQ(Str, BaseStr);
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.Objectives[0].Terms[0].CoeffIdx = 1;
            }, &Str));
  EXPECT_EQ(Str, BaseStr);
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.VectorWidth += 2;
            }));

  // Every other node field, and the child order.
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.Objectives[0].Terms[0].Factor = 2;
            }));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.Objectives.push_back({});
            }));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.Depth += 1;
            }));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.Label += "'";
            }));
  auto WithConstraint = [&](InfluenceConstraint::RelTy Rel, Int Constant) {
    return Fingerprint([&](InfluenceTree &, InfluenceNode &N) {
      InfluenceConstraint C = makeCoeffEquals(0, 0, 0, 1);
      C.Rel = Rel;
      C.Constant = Constant;
      N.Constraints.push_back(C);
    });
  };
  const service::Fingerprint Constrained =
      WithConstraint(InfluenceConstraint::Eq, -1);
  EXPECT_NE(Base, Constrained);
  EXPECT_NE(Constrained, WithConstraint(InfluenceConstraint::Ge, -1));
  EXPECT_NE(Constrained, WithConstraint(InfluenceConstraint::Eq, -2));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.VectorStmts.push_back(0);
            }));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &, InfluenceNode &N) {
              N.addChild("extra");
            }));
  EXPECT_NE(Base, Fingerprint([](InfluenceTree &T, InfluenceNode &) {
              auto &Top = T.root().Children;
              ASSERT_GE(Top.size(), 2u);
              std::swap(Top[0], Top[1]);
            }));
}

//===----------------------------------------------------------------------===//
// Schedule serialization
//===----------------------------------------------------------------------===//

TEST(ScheduleSerializationTest, RoundTripsEveryTestKernel) {
  PipelineOptions Options;
  for (const Kernel &K : allTestKernels()) {
    OperatorReport R = runOperator(K, Options);
    ASSERT_TRUE(R.Degradations.empty()) << K.Name;
    for (const Schedule *S : {&R.Isl.Sched, &R.Novec.Sched, &R.Infl.Sched}) {
      std::string Text = serializeSchedule(*S);
      std::string Error;
      std::optional<Schedule> Back = deserializeSchedule(Text, Error);
      ASSERT_TRUE(Back.has_value()) << K.Name << ": " << Error;
      EXPECT_TRUE(*Back == *S) << K.Name;
      EXPECT_TRUE(Back->compatibleWith(K)) << K.Name;
      // Canonical form: re-serialization is byte-identical.
      EXPECT_EQ(Text, serializeSchedule(*Back)) << K.Name;
    }
  }
}

TEST(ScheduleSerializationTest, RejectsCorruptText) {
  PipelineOptions Options;
  OperatorReport R = runOperator(makeElementwise(6, 6), Options);
  std::string Text = serializeSchedule(R.Infl.Sched);
  std::string Error;

  // Truncations at every quarter of the text.
  for (std::size_t Frac = 1; Frac != 4; ++Frac) {
    Error.clear();
    EXPECT_FALSE(
        deserializeSchedule(Text.substr(0, Text.size() * Frac / 4), Error)
            .has_value());
    EXPECT_FALSE(Error.empty());
  }
  // Wrong version, garbage tokens, trailing junk.
  EXPECT_FALSE(deserializeSchedule("schedule v999\n", Error).has_value());
  EXPECT_FALSE(deserializeSchedule("not a schedule at all", Error)
                   .has_value());
  std::string Oversized = Text;
  Oversized.replace(Oversized.find("dims "), 5, "dims 99999 x");
  EXPECT_FALSE(deserializeSchedule(Oversized, Error).has_value());
  EXPECT_FALSE(deserializeSchedule(Text + "junk\n", Error).has_value());
}

//===----------------------------------------------------------------------===//
// Cache entry codec
//===----------------------------------------------------------------------===//

TEST(CacheEntryCodecTest, RoundTripAndRejection) {
  Kernel K = makeProducerConsumer(6, 6);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  CachedCompilation Entry = entryFromReport(R);
  Fingerprint Key = fingerprintRequest(K, Options);

  std::string Text = encodeCacheEntry(Key, Entry);
  CachedCompilation Back;
  std::string Error;
  ASSERT_TRUE(decodeCacheEntry(Text, Key, Back, Error)) << Error;
  EXPECT_TRUE(Back.Isl == Entry.Isl);
  EXPECT_TRUE(Back.Novec == Entry.Novec);
  EXPECT_TRUE(Back.Infl == Entry.Infl);
  EXPECT_EQ(Entry.Influenced, Back.Influenced);
  EXPECT_EQ(Entry.VecEligible, Back.VecEligible);

  // A renamed/moved file must not decode under another fingerprint.
  Fingerprint Other = Key;
  Other.Lo ^= 1;
  EXPECT_FALSE(decodeCacheEntry(Text, Other, Back, Error));

  // Truncation anywhere is rejected, never a crash.
  for (std::size_t Len = 0; Len < Text.size(); Len += 7)
    EXPECT_FALSE(decodeCacheEntry(Text.substr(0, Len), Key, Back, Error));
  EXPECT_FALSE(decodeCacheEntry(Text + "extra", Key, Back, Error));
  EXPECT_FALSE(decodeCacheEntry("polyinject-cache v0\n" + Text, Key, Back,
                                Error));
}

//===----------------------------------------------------------------------===//
// Schedule cache
//===----------------------------------------------------------------------===//

TEST(ScheduleCacheTest, HitReturnsByteIdenticalSchedules) {
  Kernel K = makeBadOrderCopy(8, 12);
  PipelineOptions Options;
  ScheduleCache Cache;
  Options.Cache = &Cache;

  OperatorReport Cold = runOperator(K, Options);
  EXPECT_FALSE(Cold.CacheHit);
  ASSERT_EQ(1u, Cache.stats().Stores);
  ASSERT_EQ(1u, Cache.stats().Misses);

  OperatorReport Warm = runOperator(K, Options);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(1u, Cache.stats().Hits);

  // The replayed schedules are byte-identical to the cold run's, and the
  // analytic simulation over them agrees exactly.
  EXPECT_EQ(serializeSchedule(Cold.Isl.Sched),
            serializeSchedule(Warm.Isl.Sched));
  EXPECT_EQ(serializeSchedule(Cold.Novec.Sched),
            serializeSchedule(Warm.Novec.Sched));
  EXPECT_EQ(serializeSchedule(Cold.Infl.Sched),
            serializeSchedule(Warm.Infl.Sched));
  EXPECT_EQ(Cold.Influenced, Warm.Influenced);
  EXPECT_EQ(Cold.VecEligible, Warm.VecEligible);
  EXPECT_DOUBLE_EQ(Cold.Infl.TimeUs, Warm.Infl.TimeUs);
  EXPECT_DOUBLE_EQ(Cold.Isl.TimeUs, Warm.Isl.TimeUs);
}

TEST(ScheduleCacheTest, OptionsMismatchIsMiss) {
  Kernel K = makeElementwise(8, 8);
  ScheduleCache Cache;
  PipelineOptions A;
  A.Cache = &Cache;
  runOperator(K, A);
  ASSERT_EQ(1u, Cache.stats().Stores);

  PipelineOptions B = A;
  B.Sched.CoeffBound += 1;
  OperatorReport R = runOperator(K, B);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_EQ(2u, Cache.stats().Misses);
  EXPECT_EQ(2u, Cache.stats().Stores);
}

TEST(ScheduleCacheTest, LruEvictsAtCapacity) {
  ScheduleCache::Config Cfg;
  Cfg.Capacity = 2;
  ScheduleCache Cache(Cfg);
  PipelineOptions Options;
  Options.Cache = &Cache;

  Kernel K1 = makeElementwise(6, 8);
  Kernel K2 = makeTranspose(6, 8);
  Kernel K3 = makeProducerConsumer(6, 8);
  runOperator(K1, Options);
  runOperator(K2, Options);
  runOperator(K3, Options); // Evicts K1.
  EXPECT_EQ(2u, Cache.size());
  EXPECT_EQ(1u, Cache.stats().Evictions);

  CachedCompilation Out;
  EXPECT_FALSE(Cache.lookup(K1, Options, Out));
  EXPECT_TRUE(Cache.lookup(K2, Options, Out));
  EXPECT_TRUE(Cache.lookup(K3, Options, Out));

  // K2 is now most recently used; inserting K1 evicts K3.
  EXPECT_TRUE(Cache.lookup(K2, Options, Out));
  runOperator(K1, Options);
  EXPECT_FALSE(Cache.lookup(K3, Options, Out));
  EXPECT_TRUE(Cache.lookup(K2, Options, Out));
}

TEST(ScheduleCacheTest, DiskPersistsAcrossInstances) {
  std::filesystem::path Dir = freshDir("service_cache_persist");
  ScheduleCache::Config Cfg;
  Cfg.DiskDir = Dir.string();
  Kernel K = makeRowReduction(6, 8);
  PipelineOptions Options;

  OperatorReport Cold;
  {
    ScheduleCache Writer(Cfg);
    Options.Cache = &Writer;
    Cold = runOperator(K, Options);
    EXPECT_FALSE(Cold.CacheHit);
    EXPECT_TRUE(std::filesystem::exists(
        Writer.diskPathFor(fingerprintRequest(K, Options))));
  }
  // A fresh instance (fresh memory) serves the entry from disk.
  ScheduleCache Reader(Cfg);
  Options.Cache = &Reader;
  OperatorReport Warm = runOperator(K, Options);
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(1u, Reader.stats().DiskHits);
  EXPECT_EQ(serializeSchedule(Cold.Infl.Sched),
            serializeSchedule(Warm.Infl.Sched));
  std::filesystem::remove_all(Dir);
}

TEST(ScheduleCacheTest, CorruptDiskEntryDegradesToMiss) {
  std::filesystem::path Dir = freshDir("service_cache_corrupt");
  ScheduleCache::Config Cfg;
  Cfg.DiskDir = Dir.string();
  Kernel K = makeTranspose(8, 6);
  PipelineOptions Options;

  std::string Path;
  {
    ScheduleCache Writer(Cfg);
    Options.Cache = &Writer;
    runOperator(K, Options);
    Path = Writer.diskPathFor(fingerprintRequest(K, Options));
    ASSERT_TRUE(std::filesystem::exists(Path));
  }

  auto expectRejected = [&](const std::string &Content) {
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out << Content;
    }
    ScheduleCache Reader(Cfg);
    Options.Cache = &Reader;
    OperatorReport R = runOperator(K, Options);
    EXPECT_FALSE(R.CacheHit);
    EXPECT_EQ(1u, Reader.stats().DiskRejects);
    EXPECT_EQ(1u, Reader.stats().Misses);
  };

  // Truncated to half.
  std::string Full;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Full = Buf.str();
  }
  expectRejected(Full.substr(0, Full.size() / 2));
  // Stale format version.
  expectRejected("polyinject-cache v0\ngarbage\n");
  // Arbitrary binary garbage (embedded NULs included).
  expectRejected(std::string("\0\1\2 not a cache entry", 21));

  // The miss re-stored a good entry; it must hit again now.
  ScheduleCache Reader(Cfg);
  Options.Cache = &Reader;
  EXPECT_TRUE(runOperator(K, Options).CacheHit);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Batch compiler
//===----------------------------------------------------------------------===//

TEST(BatchCompilerTest, DeterministicAcrossWorkerCounts) {
  std::vector<BatchJob> Jobs;
  for (Kernel &K : allTestKernels())
    Jobs.push_back(BatchJob{std::move(K)});

  PipelineOptions Options;
  BatchResult Serial = BatchCompiler(Options, 1).run(Jobs);
  BatchResult Parallel = BatchCompiler(Options, 8).run(Jobs);

  ASSERT_EQ(Serial.Reports.size(), Parallel.Reports.size());
  for (std::size_t I = 0; I != Serial.Reports.size(); ++I) {
    const OperatorReport &A = Serial.Reports[I];
    const OperatorReport &B = Parallel.Reports[I];
    EXPECT_EQ(A.Name, B.Name) << "submission order must be preserved";
    EXPECT_EQ(serializeSchedule(A.Isl.Sched),
              serializeSchedule(B.Isl.Sched));
    EXPECT_EQ(serializeSchedule(A.Novec.Sched),
              serializeSchedule(B.Novec.Sched));
    EXPECT_EQ(serializeSchedule(A.Infl.Sched),
              serializeSchedule(B.Infl.Sched));
    EXPECT_EQ(A.Influenced, B.Influenced);
    EXPECT_EQ(A.VecEligible, B.VecEligible);
    EXPECT_DOUBLE_EQ(A.Isl.TimeUs, B.Isl.TimeUs);
    EXPECT_DOUBLE_EQ(A.Novec.TimeUs, B.Novec.TimeUs);
    EXPECT_DOUBLE_EQ(A.Infl.TimeUs, B.Infl.TimeUs);
    EXPECT_DOUBLE_EQ(A.Tvm.TimeUs, B.Tvm.TimeUs);
    EXPECT_EQ(A.Degradations.size(), B.Degradations.size());
  }
}

TEST(BatchCompilerTest, SinkRecordsFollowSubmissionOrder) {
  std::vector<BatchJob> Jobs;
  for (Kernel &K : allTestKernels())
    Jobs.push_back(BatchJob{std::move(K)});

  obs::ReportSink Sink;
  PipelineOptions Options;
  Options.Sink = &Sink;
  BatchResult R = BatchCompiler(Options, 4).run(Jobs);

  ASSERT_EQ(Jobs.size(), Sink.operators().size());
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    EXPECT_EQ(Jobs[I].K.Name, Sink.operators()[I].Name);
  EXPECT_EQ(Jobs.size(), R.Reports.size());
}

TEST(BatchCompilerTest, SharedCacheServesDuplicates) {
  Kernel K = makeBadOrderCopy(8, 10);
  std::vector<BatchJob> Jobs(3, BatchJob{K});

  ScheduleCache Cache;
  PipelineOptions Options;
  Options.Cache = &Cache;
  // Serial workers so the first job's store is visible to the rest.
  BatchResult R = BatchCompiler(Options, 1).run(Jobs);
  EXPECT_FALSE(R.Reports[0].CacheHit);
  EXPECT_TRUE(R.Reports[1].CacheHit);
  EXPECT_TRUE(R.Reports[2].CacheHit);
  EXPECT_EQ(2u, R.hits());
  EXPECT_EQ(serializeSchedule(R.Reports[0].Infl.Sched),
            serializeSchedule(R.Reports[2].Infl.Sched));
}

TEST(BatchCompilerTest, ConcurrentWorkersShareCacheSafely) {
  // Eight workers over a mix of duplicates hammer the cache hooks
  // concurrently; under TSan this is the data-race probe for the cache.
  std::vector<Kernel> Base = allTestKernels();
  std::vector<BatchJob> Jobs;
  for (unsigned Rep = 0; Rep != 3; ++Rep)
    for (const Kernel &K : Base)
      Jobs.push_back(BatchJob{K});

  ScheduleCache Cache;
  PipelineOptions Options;
  Options.Cache = &Cache;
  BatchResult R = BatchCompiler(Options, 8).run(Jobs);
  ASSERT_EQ(Jobs.size(), R.Reports.size());
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    EXPECT_EQ(Jobs[I].K.Name, R.Reports[I].Name);
  // Every lookup either hit or missed (how many hit depends on worker
  // interleaving — concurrent duplicates can both miss — but the
  // accounting must balance and every report must carry real schedules).
  CacheStats S = Cache.stats();
  EXPECT_EQ(Jobs.size(), S.Hits + S.Misses);
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    EXPECT_EQ(serializeSchedule(R.Reports[I].Infl.Sched),
              serializeSchedule(R.Reports[I % Base.size()].Infl.Sched));
}

TEST(BatchCompilerTest, JournalAssignsUniqueRequestIdsUnderConcurrency) {
  // Eight workers journaling concurrently; under TSan this is the
  // data-race probe for the journal ring and file-less emit path.
  std::vector<Kernel> Base = allTestKernels();
  std::vector<BatchJob> Jobs;
  for (unsigned Rep = 0; Rep != 2; ++Rep)
    for (const Kernel &K : Base)
      Jobs.push_back(BatchJob{K});

  obs::journal().disable();
  obs::journal().reset();
  obs::journal().enable();
  PipelineOptions Options;
  BatchResult R = BatchCompiler(Options, 8).run(Jobs);
  std::vector<obs::JournalRecord> Snap = obs::journal().snapshot();
  obs::journal().disable();
  obs::journal().reset();

  // Every report carries a distinct request id, pre-assigned in
  // submission order before the pool starts.
  ASSERT_EQ(Jobs.size(), R.Reports.size());
  std::set<std::string> Ids;
  for (const OperatorReport &Report : R.Reports) {
    EXPECT_FALSE(Report.RequestId.empty()) << Report.Name;
    Ids.insert(Report.RequestId);
  }
  EXPECT_EQ(Ids.size(), R.Reports.size());

  // The journal pairs request_start/request_end exactly once per id,
  // and brackets the batch with id-less batch_start/batch_end.
  std::map<std::string, int> Starts, Ends;
  unsigned BatchStart = 0, BatchEnd = 0;
  for (const obs::JournalRecord &Rec : Snap) {
    if (Rec.Type == "request_start")
      ++Starts[Rec.RequestId];
    else if (Rec.Type == "request_end")
      ++Ends[Rec.RequestId];
    else if (Rec.Type == "batch_start") {
      ++BatchStart;
      EXPECT_TRUE(Rec.RequestId.empty());
    } else if (Rec.Type == "batch_end") {
      ++BatchEnd;
      EXPECT_TRUE(Rec.RequestId.empty());
    } else
      EXPECT_TRUE(Ids.count(Rec.RequestId))
          << Rec.Type << " carries unknown id " << Rec.RequestId;
  }
  EXPECT_EQ(BatchStart, 1u);
  EXPECT_EQ(BatchEnd, 1u);
  for (const std::string &Id : Ids) {
    EXPECT_EQ(Starts[Id], 1) << Id;
    EXPECT_EQ(Ends[Id], 1) << Id;
  }
}

//===----------------------------------------------------------------------===//
// Observability thread safety
//===----------------------------------------------------------------------===//

TEST(ObsThreadSafetyTest, ConcurrentCounterAndHistogramUpdates) {
  obs::Counter &C = obs::metrics().counter("service.test.counter");
  obs::Histogram &H = obs::metrics().histogram("service.test.histogram");
  C.reset();
  H.reset();

  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 20000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&C, &H] {
      for (unsigned I = 0; I != PerThread; ++I) {
        C.inc();
        H.observe(1.0);
        // Registry lookups race with updates; names must stay stable.
        obs::metrics().counter("service.test.counter2").inc();
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Threads * PerThread, C.value());
  EXPECT_EQ(Threads * PerThread, H.count());
  EXPECT_DOUBLE_EQ(static_cast<double>(Threads * PerThread), H.sum());
  obs::MetricsSnapshot Snap = obs::metrics().snapshot();
  EXPECT_EQ(Threads * PerThread, Snap.counter("service.test.counter2"));
}

TEST(ObsThreadSafetyTest, ConcurrentSpansKeepJsonWellFormed) {
  obs::tracer().reset();
  obs::tracer().enable(obs::Tracer::Json);

  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 200;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([] {
      for (unsigned I = 0; I != PerThread; ++I) {
        obs::Span Outer("service.test.outer");
        Outer.arg("iteration", I);
        obs::Span Inner("service.test.inner");
        Inner.arg("nested", true);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(2u * Threads * PerThread, obs::tracer().events().size());
  std::string Error;
  std::optional<obs::json::Value> Parsed =
      obs::json::parse(obs::tracer().json(), Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  const obs::json::Value *Events = Parsed->find("traceEvents");
  ASSERT_NE(nullptr, Events);
  // Every span serialized, plus process/thread metadata ("M") events —
  // one thread_name per tid seen, so exactly Threads of those.
  unsigned Spans = 0, Metadata = 0;
  for (const obs::json::Value &E : Events->Items)
    ++(E.at("ph").Str == "M" ? Metadata : Spans);
  EXPECT_EQ(2u * Threads * PerThread, Spans);
  EXPECT_GE(Metadata, Threads);

  obs::tracer().disable();
  obs::tracer().reset();
}

} // namespace
