//===- tests/fuzz_test.cpp - Randomized end-to-end property tests ---------===//
//
// Random fused operators (random depths, shapes, access permutations,
// broadcasts, reductions) and random influence trees, checked against
// the two strongest oracles in the project:
//   - the exact schedule-level validity checker (dimension-by-dimension
//     weak satisfaction with eventual strict carrying), and
//   - end-to-end execution: original order vs scheduled order on real
//     buffers.
//
//===----------------------------------------------------------------------===//

#include "exec/DateSorter.h"
#include "exec/Reference.h"
#include "gpusim/GpuModel.h"
#include "influence/TreeBuilder.h"
#include "ir/Builder.h"
#include "lp/IlpMemo.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "ops/Networks.h"
#include "pipeline/Pipeline.h"
#include "poly/Farkas.h"
#include "sched/ConstraintBuilders.h"
#include "sched/Scheduler.h"
#include "support/FailPoint.h"
#include "TestKernels.h"
#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <optional>
#include <random>

using namespace pinj;

namespace {

/// Deterministic PRNG (xorshift-ish) for reproducible cases.
struct Rng {
  unsigned State;
  explicit Rng(unsigned Seed) : State(Seed * 2654435761u + 12345u) {}
  unsigned next(unsigned Bound) {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State % Bound;
  }
};

/// Builds a random fused operator. All extents share one value so any
/// iterator can index any tensor dimension; statements read inputs and
/// earlier temporaries through random iterator selections or constants,
/// and may accumulate into their own output (a reduction).
Kernel makeRandomKernel(unsigned Seed) {
  Rng R(Seed);
  Int N = 3 + R.next(3); // 3..5
  KernelBuilder B("fuzz" + std::to_string(Seed));

  struct TensorInfo {
    unsigned Id;
    unsigned Rank;
  };
  std::vector<TensorInfo> Tensors;
  unsigned NumInputs = 1 + R.next(2);
  for (unsigned T = 0; T != NumInputs; ++T) {
    unsigned Rank = 1 + R.next(3);
    std::vector<Int> Shape(Rank, N);
    Tensors.push_back({B.tensor("IN" + std::to_string(T), Shape), Rank});
  }

  unsigned NumStmts = 1 + R.next(3);
  static const char *const IterNames[3] = {"i", "j", "k"};
  for (unsigned S = 0; S != NumStmts; ++S) {
    unsigned Depth = 1 + R.next(3);
    std::vector<std::pair<std::string, Int>> Iters;
    for (unsigned D = 0; D != Depth; ++D)
      Iters.emplace_back(IterNames[D], N);

    unsigned WriteRank = 1 + R.next(Depth);
    std::vector<Int> WriteShape(WriteRank, N);
    unsigned Out =
        B.tensor("T" + std::to_string(S), std::move(WriteShape));

    auto randomIndex = [&](unsigned Rank) {
      std::vector<IndexExpr> Index;
      for (unsigned D = 0; D != Rank; ++D) {
        if (R.next(5) == 0)
          Index.push_back(IndexExpr(static_cast<Int>(R.next(N))));
        else
          Index.push_back(IndexExpr(IterNames[R.next(Depth)]));
      }
      return Index;
    };
    // The write uses distinct leading iterators so each iteration owns
    // its cell unless the statement is a reduction over the remaining
    // depth.
    std::vector<IndexExpr> WriteIndex;
    for (unsigned D = 0; D != WriteRank; ++D)
      WriteIndex.push_back(IndexExpr(IterNames[D]));

    bool Reduction = WriteRank < Depth && R.next(2) == 0;
    unsigned NumReads = Reduction ? 2 : 1 + R.next(2);
    OpKind Kind;
    if (Reduction)
      Kind = OpKind::Fma;
    else if (NumReads == 1)
      Kind = R.next(2) ? OpKind::Relu : OpKind::Neg;
    else
      Kind = R.next(2) ? OpKind::Add : OpKind::Mul;

    KernelBuilder &Stmt =
        B.stmt("S" + std::to_string(S), Iters).op(Kind);
    Stmt.write(Out, WriteIndex);
    if (Reduction)
      Stmt.read(Out, WriteIndex); // Accumulator.
    for (unsigned Read = 0; Read != NumReads; ++Read) {
      const TensorInfo &T = Tensors[R.next(Tensors.size())];
      Stmt.read(T.Id, randomIndex(T.Rank));
    }
    Tensors.push_back({Out, WriteRank});
  }
  return B.build();
}

/// Exact schedule validity (same oracle as sched_test).
bool scheduleRespects(const Kernel &K, const Schedule &S,
                      const DependenceRelation &D) {
  AffineSet Remaining = D.Rel;
  for (unsigned Dim = 0, E = S.numDims(); Dim != E; ++Dim) {
    if (Remaining.isEmpty())
      return true;
    IntVector Diff = S.differenceExpr(K, D, Dim);
    if (!Remaining.isAlwaysAtLeast(Diff, 0))
      return false;
    if (Remaining.isAlwaysAtLeast(Diff, 1))
      return true;
    Remaining.addEq(Diff);
  }
  return Remaining.isEmpty();
}

/// End-to-end semantics: the shipped validator when the library walks
/// \p S, else (a skewed schedule) the sorted-order oracle's run against
/// the original order.
bool preservesSemantics(const Kernel &K, const Schedule &S) {
  CompiledKernel Code(K);
  try {
    DateOrderExecutor().plan(Code, S);
  } catch (const RecoverableError &E) {
    if (E.status().message() != UnwalkableSchedule)
      throw;
    ExecBuffers Original = makeInputs(K, 1), Scheduled = Original;
    runOriginal(K, Original);
    runScheduled(K, S, Scheduled);
    return buffersAlmostEqual(Original, Scheduled);
  }
  return scheduleIsSemanticallyEqual(K, S);
}

bool isValidSchedule(const Kernel &K, const Schedule &S) {
  for (const DependenceRelation &D : computeDependences(K))
    if (D.constrainsValidity() && !scheduleRespects(K, S, D))
      return false;
  return true;
}

/// A random influence tree: a couple of branches pinning random unit
/// rows at random depths (often unsatisfiable mid-branch, exercising
/// the fallback chain).
InfluenceTree makeRandomTree(const Kernel &K, unsigned Seed) {
  Rng R(Seed * 7919u + 11u);
  InfluenceTree Tree;
  unsigned Branches = 1 + R.next(3);
  for (unsigned Br = 0; Br != Branches; ++Br) {
    InfluenceNode *Node = nullptr;
    unsigned Depth = 1 + R.next(3);
    for (unsigned D = 0; D != Depth; ++D) {
      std::string Label =
          "b" + std::to_string(Br) + ".d" + std::to_string(D);
      Node = Node ? Node->addChild(Label) : Tree.root().addChild(Label);
      unsigned Stmt = R.next(K.Stmts.size());
      unsigned NumIters = K.Stmts[Stmt].numIters();
      unsigned Pinned = R.next(NumIters);
      for (unsigned Q = 0; Q != NumIters; ++Q)
        Node->Constraints.push_back(
            makeCoeffEquals(Stmt, D, Q, Q == Pinned ? 1 : 0));
      if (R.next(4) == 0)
        Node->RequireParallel = true;
    }
  }
  return Tree;
}

} // namespace

class KernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzz, BaselineScheduleValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  ASSERT_EQ(K.verify(), "") << K.Name;
  SchedulerOptions Options;
  Options.SerializeSccs = true;
  SchedulerResult R = scheduleKernel(K, Options);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(preservesSemantics(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, AutoInfluencedScheduleValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(preservesSemantics(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, RandomTreeNeverBreaksValidity) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);
  InfluenceTree Tree = makeRandomTree(K, Seed);
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(preservesSemantics(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, FeautrierModeValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  SchedulerOptions Options;
  Options.UseFeautrierFallback = true;
  SchedulerResult R = scheduleKernel(K, Options);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(preservesSemantics(K, R.Sched)) << K.Name;
}

namespace {

/// The schedules of the four modes above.
std::vector<std::pair<const char *, Schedule>>
fuzzModeSchedules(const Kernel &K, unsigned Seed) {
  SchedulerOptions Serial;
  Serial.SerializeSccs = true;
  SchedulerOptions Feautrier;
  Feautrier.UseFeautrierFallback = true;
  InfluenceTree Auto = buildInfluenceTree(K, InfluenceOptions());
  InfluenceTree Random = makeRandomTree(K, Seed);
  return {{"baseline", scheduleKernel(K, Serial).Sched},
          {"auto", scheduleKernel(K, SchedulerOptions(), &Auto).Sched},
          {"random", scheduleKernel(K, SchedulerOptions(), &Random).Sched},
          {"feautrier", scheduleKernel(K, Feautrier).Sched}};
}

} // namespace

// The executor against the date-sorting oracle on the schedules of all
// four modes above: the same instance order, so bit-identical buffers.
TEST_P(KernelFuzz, ExecutorBitIdenticalToOracle) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);
  ExecBuffers Inputs = makeInputs(K, Seed);
  ExecBuffers Fast = Inputs, Slow = Inputs;
  runOriginal(K, Fast);
  referenceRunOriginal(K, Slow);
  EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << K.Name << " original";
  for (const auto &[Mode, S] : fuzzModeSchedules(K, Seed)) {
    Fast = Inputs;
    Slow = Inputs;
    runScheduled(K, S, Fast);
    referenceRunScheduled(K, S, Slow);
    EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << K.Name << " " << Mode;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(1, 41));

// Seeds 4 and 35 build a skewed schedule, which the executor refuses to
// walk: the sorted-order oracle runs it, in the date-sorting oracle's
// order.
TEST(DateWalk, SkewedFuzzSchedulesFallBackToSort) {
  for (unsigned Seed : {4u, 35u}) {
    Kernel K = makeRandomKernel(Seed);
    CompiledKernel Code(K);
    unsigned Refused = 0;
    for (const auto &[Mode, S] : fuzzModeSchedules(K, Seed)) {
      try {
        DateOrderExecutor().plan(Code, S);
      } catch (const RecoverableError &E) {
        EXPECT_EQ(E.status().site(), "exec.interpret") << K.Name << " " << Mode;
        ++Refused;
      }
      DateSorter Sorter;
      Sorter.sort(Code, S);
      ExecBuffers Fast = makeInputs(K, Seed), Slow = Fast;
      Sorter.run(Fast);
      referenceRunScheduled(K, S, Slow);
      EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << K.Name << " " << Mode;
    }
    EXPECT_GT(Refused, 0u) << K.Name;
  }
}

// The construction runs the carried-relation walk while it installs
// dimensions (withdrawing and re-attempting some on the way);
// annotateParallelism runs it over the finished schedule. Both must
// flag the same dimensions parallel, on every schedule the construction
// builds for the test kernels, the corpus and fuzz seeds 1-40.
TEST(CarriedRelationWalk, ConstructionFlagsMatchAnnotateParallelism) {
  std::vector<Kernel> Kernels = tuneBenchCorpus(0);
  for (const Kernel &K : {makeRunningExample(8), makeElementwise(8, 8),
                          makeTranspose(8, 8), makeProducerConsumer(8, 8),
                          makeBadOrderCopy(8, 8), makeRowReduction(8, 8),
                          makeGatherReduction(8)})
    Kernels.push_back(K);
  for (unsigned Seed = 1; Seed <= 40; ++Seed)
    Kernels.push_back(makeRandomKernel(Seed));
  SchedulerOptions Isl, Feautrier;
  Isl.SerializeSccs = true;
  Feautrier.UseFeautrierFallback = true;
  unsigned Compared = 0;
  for (const Kernel &K : Kernels) {
    InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
    for (const SchedulerResult &R :
         {scheduleKernel(K, Isl), scheduleKernel(K, Feautrier),
          scheduleKernel(K, SchedulerOptions(), &Tree)}) {
      if (R.FellBackToOriginal)
        continue;
      Schedule Annotated = R.Sched;
      annotateParallelism(K, Annotated);
      for (unsigned D = 0, ND = R.Sched.numDims(); D != ND; ++D, ++Compared) {
        EXPECT_EQ(Annotated.Dims[D].IsParallel, R.Sched.Dims[D].IsParallel)
            << K.Name << " dim " << D;
        EXPECT_EQ(Annotated.Dims[D].ThreadParallel,
                  R.Sched.Dims[D].ThreadParallel)
            << K.Name << " dim " << D;
      }
    }
  }
  EXPECT_GT(Compared, 500u);
}

/// Budget-stress mode: random kernels under solver budgets far too small
/// for any real scheduling run, with a fail-point (cycled by seed) armed
/// on top. The pipeline must still return a report whose schedules
/// respect every dependence — the degradation ladder, not an error path,
/// is the contract under starvation.
class BudgetStress : public ::testing::TestWithParam<int> {
protected:
  void TearDown() override { failpoint::clearAll(); }
};

TEST_P(BudgetStress, PipelineAlwaysReturnsValidReport) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);

  PipelineOptions Options;
  Options.Validate = true;
  // No wall-clock limit: pivot/node caps keep the test deterministic.
  Options.Budget.MaxPivots = 10 + Seed % 60;
  Options.Budget.MaxIlpNodes = 1 + Seed % 6;

  const std::vector<const char *> &Sites = failpoint::allSites();
  const char *Site = Sites[Seed % Sites.size()];
  failpoint::activate(Site);
  OperatorReport R = runOperator(K, Options);
  failpoint::clearAll();

  EXPECT_TRUE(isValidSchedule(K, R.Isl.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(isValidSchedule(K, R.Novec.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(isValidSchedule(K, R.Infl.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Infl.Sched))
      << K.Name << " " << Site;
  // Anything that ran below full fidelity must be on the record.
  if (!R.Isl.Outcome.ok() || !R.Novec.Outcome.ok() || !R.Infl.Outcome.ok())
    EXPECT_TRUE(R.degraded()) << K.Name << " " << Site;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetStress, ::testing::Range(1, 31));

//===----------------------------------------------------------------------===//
// Farkas blocks: substituted multipliers vs the plain expansion
//===----------------------------------------------------------------------===//

namespace {

/// The textbook affine Farkas expansion of "Psi >= 0 over P": one
/// multiplier per inequality of P, a free pair per equality, an equality
/// per dimension or parameter column and >= on the constant column. No
/// elimination, no substitution.
void addPlainFarkas(IlpBuilder &B, const AffineSet &P, VarAffineForm Psi) {
  for (const SetConstraint &C : P.constraints()) {
    unsigned Pos = B.addVar(/*IsInteger=*/false);
    unsigned Neg = C.IsEquality ? B.addVar(/*IsInteger=*/false) : ~0u;
    for (unsigned J = 0, E = Psi.Cols.size(); J != E; ++J) {
      Psi.Cols[J].addTerm(Pos, checkedNeg(C.Row[J]));
      if (Neg != ~0u)
        Psi.Cols[J].addTerm(Neg, C.Row[J]);
    }
  }
  for (unsigned J = 0; J + 1 != Psi.Cols.size(); ++J)
    B.addEq(Psi.Cols[J]);
  B.addGe(Psi.constCoeff());
}

/// Sign * (phi_T - phi_S) over \p D's space, plus u.p + w when
/// \p Proximity (the forms addValidity and addProximity certify).
VarAffineForm differenceForm(const DimIlp &Ilp, const Kernel &K,
                             const DependenceRelation &D, bool Proximity) {
  const Int Sign = Proximity ? -1 : 1;
  const DimIlp::StmtVars &Src = Ilp.Stmts[D.SrcStmt];
  const DimIlp::StmtVars &Dst = Ilp.Stmts[D.DstStmt];
  const unsigned NumDims = D.Rel.space().NumDims;
  VarAffineForm Psi(D.Rel.space());
  for (unsigned I = 0, E = Src.Iter.size(); I != E; ++I)
    Psi.dimCoeff(I).addTerm(Src.Iter[I], -Sign);
  for (unsigned I = 0, E = Dst.Iter.size(); I != E; ++I)
    Psi.dimCoeff(Src.Iter.size() + I).addTerm(Dst.Iter[I], Sign);
  for (unsigned P = 0, E = K.numParams(); P != E; ++P) {
    Psi.Cols[NumDims + P].addTerm(Dst.Param[P], Sign);
    Psi.Cols[NumDims + P].addTerm(Src.Param[P], -Sign);
    if (Proximity)
      Psi.Cols[NumDims + P].addTerm(Ilp.U[P], 1);
  }
  Psi.constCoeff().addTerm(Dst.Const, Sign);
  Psi.constCoeff().addTerm(Src.Const, -Sign);
  if (Proximity)
    Psi.constCoeff().addTerm(Ilp.W, 1);
  return Psi;
}

} // namespace

// The production block of one relation (Gauss elimination, one
// multiplier substituted out per box-bounded column) against the plain
// expansion: validity (when the relation constrains it) and proximity
// over the relation must give the same lexmin point in the scheduling
// variables, for seeded random objectives. The objectives end with every
// scheduling variable in turn, so that point is unique. The block is
// built once and replayed for the later objectives, as FarkasCache does.
TEST(FarkasDifferential, SubstitutedBlocksMatchPlainExpansion) {
  std::vector<Kernel> Kernels = {
      makeRunningExample(8),  makeElementwise(4, 6),
      makeTranspose(4, 6),    makeProducerConsumer(4, 6),
      makeBadOrderCopy(4, 6), makeRowReduction(4, 6),
      makeGatherReduction(4)};
  for (Kernel &K : tuneBenchCorpus(0))
    Kernels.push_back(std::move(K));
  for (unsigned Seed = 1; Seed != 41; ++Seed)
    Kernels.push_back(makeRandomKernel(Seed));

  DependenceOptions WithInput;
  WithInput.IncludeInput = true;
  unsigned Compared = 0;
  for (unsigned KI = 0; KI != Kernels.size(); ++KI) {
    const Kernel &K = Kernels[KI];
    std::mt19937 Rng(KI);
    for (const DependenceRelation &D : computeDependences(K, WithInput)) {
      IlpBuilder::ConstraintBlock Block;
      for (unsigned Trial = 0; Trial != 4; ++Trial) {
        DimIlp Substituted = makeDimIlp(K, SchedulerOptions());
        DimIlp Plain = makeDimIlp(K, SchedulerOptions());
        const unsigned NumSched = Plain.Builder.numVars();
        if (Trial == 0) {
          const unsigned RowMark = Substituted.Builder.numConstraints();
          if (D.constrainsValidity())
            addValidity(Substituted, K, D);
          addProximity(Substituted, K, D);
          Block = Substituted.Builder.captureBlock(NumSched, RowMark);
        } else {
          Substituted.Builder.replayBlock(Block);
        }
        if (D.constrainsValidity())
          addPlainFarkas(Plain.Builder, D.Rel,
                         differenceForm(Plain, K, D, /*Proximity=*/false));
        addPlainFarkas(Plain.Builder, D.Rel,
                       differenceForm(Plain, K, D, /*Proximity=*/true));

        // Each statement's iterator coefficients sum to at least 1, and
        // a random objective (bounded below: u and w get no negative
        // weight) picks a vertex.
        std::uniform_int_distribution<int> Weight(-3, 3);
        const unsigned NumBounded = Plain.Stmts.back().Const + 1;
        std::vector<SparseForm> Objectives(1);
        for (unsigned V = 0; V != NumSched; ++V) {
          int Wt = Weight(Rng);
          Objectives[0].addTerm(V, V < NumBounded || Wt > 0 ? Wt : -Wt);
          Objectives.emplace_back();
          Objectives.back().addTerm(V, 1);
        }
        for (DimIlp *Ilp : {&Substituted, &Plain}) {
          for (const DimIlp::StmtVars &S : Ilp->Stmts) {
            SparseForm Progress;
            for (unsigned V : S.Iter)
              Progress.addTerm(V, 1);
            Progress.addConstant(-1);
            Ilp->Builder.addGe(Progress);
          }
          for (const SparseForm &O : Objectives)
            Ilp->Builder.addObjective(O);
        }
        IlpResult Got = Substituted.Builder.solve();
        IlpResult Want = Plain.Builder.solve();
        ASSERT_EQ(Got.Status, Want.Status) << K.Name << " trial " << Trial;
        if (!Want.isOptimal())
          continue;
        ++Compared;
        for (unsigned V = 0; V != NumSched; ++V)
          EXPECT_EQ(Got.Point[V], Want.Point[V])
              << K.Name << " trial " << Trial << " variable " << V;
      }
    }
  }
  EXPECT_GT(Compared, 1000u);
}

//===----------------------------------------------------------------------===//
// The statement-walk memo (gpusim/GpuModel.h, SimMemoScope)
//===----------------------------------------------------------------------===//

namespace {

/// Every KernelSim field, compared as bits.
void expectSimBitsEqual(const KernelSim &A, const KernelSim &B,
                        const std::string &What) {
  auto Bits = [](double V) { return std::bit_cast<std::uint64_t>(V); };
  EXPECT_EQ(Bits(A.TimeUs), Bits(B.TimeUs)) << What;
  EXPECT_EQ(Bits(A.MemTimeUs), Bits(B.MemTimeUs)) << What;
  EXPECT_EQ(Bits(A.ComputeTimeUs), Bits(B.ComputeTimeUs)) << What;
  EXPECT_EQ(Bits(A.Transactions), Bits(B.Transactions)) << What;
  EXPECT_EQ(Bits(A.TransactionBytes), Bits(B.TransactionBytes)) << What;
  EXPECT_EQ(Bits(A.UsefulBytes), Bits(B.UsefulBytes)) << What;
  EXPECT_EQ(Bits(A.MemInstructions), Bits(B.MemInstructions)) << What;
  EXPECT_EQ(Bits(A.ComputeInstructions), Bits(B.ComputeInstructions))
      << What;
  EXPECT_EQ(Bits(A.Warps), Bits(B.Warps)) << What;
}

/// One kernel's simulations on one target: its mapped configurations,
/// then the tvm proxy, as runOperator orders them.
struct SimRun {
  std::vector<KernelSim> Configs;
  TvmProxyResult Tvm;
  std::uint64_t Warps = 0; ///< gpusim.warps_simulated the run charged.
  std::uint64_t Hits = 0;  ///< gpusim.stmt_memo_hits.
};

SimRun simulateAll(const Kernel &K, const std::vector<MappedKernel> &Mapped,
                   const target::TargetModel &T) {
  static obs::Counter &Warps =
      obs::metrics().counter("gpusim.warps_simulated");
  static obs::Counter &Hits = obs::metrics().counter("gpusim.stmt_memo_hits");
  obs::TallyScope Work;
  SimRun Run;
  for (const MappedKernel &M : Mapped)
    Run.Configs.push_back(T.simulate(M));
  Run.Tvm = simulateTvmProxy(K, T, GpuMappingOptions());
  Run.Warps = Work.tally().count(Warps);
  Run.Hits = Work.tally().count(Hits);
  return Run;
}

} // namespace

// A memo hit replays what the walk computes: over the isl/novec/infl
// schedules and the tvm proxy of the test kernels, the corpus, the seven
// Table II suites and fuzz seeds 1-40, on every built-in target, the
// simulations inside one memo scope per kernel equal those outside any
// scope bit for bit, and charge the same warp samples.
TEST(SimMemo, HitsAreBitIdenticalToWalks) {
  std::vector<Kernel> Kernels = tuneBenchCorpus(0);
  for (const Kernel &K : {makeRunningExample(64), makeElementwise(64, 96),
                          makeTranspose(64, 96), makeProducerConsumer(64, 96),
                          makeBadOrderCopy(64, 96), makeRowReduction(64, 96),
                          makeGatherReduction(64)})
    Kernels.push_back(K);
  for (const std::string &Name : allNetworkNames())
    for (Kernel &K : makeNetworkSuite(Name).Operators)
      Kernels.push_back(std::move(K));
  for (unsigned Seed = 1; Seed <= 40; ++Seed)
    Kernels.push_back(makeRandomKernel(Seed));

  std::vector<std::shared_ptr<target::TargetModel>> Targets;
  for (const char *Name : {"v100", "a100", "p100", "cpu-simd"})
    Targets.push_back(target::makeBuiltinTarget(Name));

  std::uint64_t Hits = 0;
  unsigned Simulated = 0;
  for (const Kernel &K : Kernels) {
    OperatorReport R = runOperator(K, PipelineOptions());
    std::vector<MappedKernel> Mapped;
    for (const ConfigResult *C : {&R.Isl, &R.Novec, &R.Infl})
      if (isSimulatableSchedule(K, C->Sched))
        Mapped.push_back(mapToGpu(K, C->Sched));
    for (const auto &T : Targets) {
      const std::string What = K.Name + "/" + T->name();
      SimRun Walked = simulateAll(K, Mapped, *T);
      SimRun Memoized;
      {
        SimMemoScope Memo;
        Memoized = simulateAll(K, Mapped, *T);
      }
      ASSERT_EQ(Walked.Configs.size(), Memoized.Configs.size());
      for (std::size_t I = 0; I != Walked.Configs.size(); ++I, ++Simulated)
        expectSimBitsEqual(Walked.Configs[I], Memoized.Configs[I],
                           What + " config " + std::to_string(I));
      expectSimBitsEqual(Walked.Tvm.Aggregate, Memoized.Tvm.Aggregate,
                         What + " tvm");
      EXPECT_EQ(std::bit_cast<std::uint64_t>(Walked.Tvm.TimeUs),
                std::bit_cast<std::uint64_t>(Memoized.Tvm.TimeUs))
          << What;
      EXPECT_EQ(Walked.Warps, Memoized.Warps) << What;
      EXPECT_EQ(Walked.Hits, 0u) << What;
      Hits += Memoized.Hits;
    }
  }
  EXPECT_GT(Simulated, 2000u);
  EXPECT_GT(Hits, 1000u);
}

// v100 warps are 32 lanes over 32-byte sectors, cpu-simd vectors 16
// lanes over 64-byte lines: one scope must not serve a walk of one to
// the other.
TEST(SimMemo, NoHitAcrossLaneCounts) {
  Kernel K = makeRunningExample(64);
  MappedKernel M = mapToGpu(K, runOperator(K, PipelineOptions()).Infl.Sched);
  auto Gpu = target::makeBuiltinTarget("v100");
  auto Cpu = target::makeBuiltinTarget("cpu-simd");
  SimRun CpuAlone;
  {
    SimMemoScope Memo;
    CpuAlone = simulateAll(K, {M}, *Cpu);
  }
  SimMemoScope Memo;
  SimRun GpuFirst = simulateAll(K, {M}, *Gpu);
  SimRun CpuAfter = simulateAll(K, {M}, *Cpu);
  EXPECT_NE(GpuFirst.Configs[0].Transactions, CpuAfter.Configs[0].Transactions);
  expectSimBitsEqual(CpuAlone.Configs[0], CpuAfter.Configs[0], "cpu-simd");
  EXPECT_EQ(CpuAlone.Hits, CpuAfter.Hits);
  EXPECT_EQ(CpuAlone.Warps, CpuAfter.Warps);
}

// Walks one key field apart must not share a memo entry. Each case is
// a copy kernel's infl mapping with one field changed: a read shifted
// by one element (its constant offset), a one-trip sequential iterator
// in the read's column (its lane kind: no address moves, but the read
// no longer vectorizes), and a shorter column under the same mapping
// (the statement's extent). Each case also runs on a 16-lane model over
// 32-byte sectors and a 32-lane one over 64-byte lines (the lane count
// alone, the transaction size alone).
TEST(SimMemo, NearMissesWalkAgain) {
  auto copyKernel = [](const char *Name, IndexExpr Col, bool OneTrip,
                       Int Cols) {
    KernelBuilder B(Name);
    unsigned In = B.tensor("IN", {64, 132});
    unsigned Out = B.tensor("OUT", {64, 128});
    std::vector<std::pair<std::string, Int>> Iters = {{"i", 64},
                                                      {"j", Cols}};
    if (OneTrip)
      Iters.insert(Iters.begin() + 1, {"k", 1});
    B.stmt("S", Iters)
        .write(Out, {"i", "j"})
        .read(In, {"i", Col})
        .op(OpKind::Assign);
    return B.build();
  };
  auto inflMapping = [](const Kernel &K) {
    return mapToGpu(K, runOperator(K, PipelineOptions()).Infl.Sched);
  };
  IndexExpr PlusK("j");
  PlusK.Terms.emplace_back("k", 1);
  const Kernel Kernels[] = {
      copyKernel("aligned", "j", false, 128),
      copyKernel("shifted", IndexExpr("j") + 1, false, 128),
      copyKernel("one_trip", PlusK, true, 128),
      copyKernel("short", "j", false, 120)};
  std::vector<MappedKernel> Cases;
  for (const Kernel &K : Kernels)
    Cases.push_back(inflMapping(K));
  // The mapper gives k's one-trip dim a thread; as a sequential dim the
  // walk never reads it.
  ASSERT_EQ(Cases[2].Dims.size(), 3u);
  ASSERT_EQ(Cases[2].Dims[1].Extent, 1);
  Cases[2].Dims[1].Role = DimRole::Seq;
  Cases[3].Dims = Cases[0].Dims;

  SectorTransactionModel Warp(32, 32), HalfWarp(16, 32), WideLines(32, 64);
  const TransactionModel *Models[] = {&Warp, &HalfWarp, &WideLines};
  std::vector<KernelSim> Walked;
  for (const TransactionModel *Tx : Models)
    for (const MappedKernel &M : Cases)
      Walked.push_back(accumulateTransactions(M, *Tx));
  // Every case walks differently from the aligned copy on the same
  // model, so a shared entry would show.
  for (std::size_t I = 0; I != Walked.size(); ++I) {
    if (I % Cases.size() != 0) {
      EXPECT_NE(std::memcmp(&Walked[I], &Walked[I - I % Cases.size()],
                            sizeof(KernelSim)),
                0)
          << I;
    }
  }

  SimMemoScope Memo;
  std::size_t I = 0;
  for (const TransactionModel *Tx : Models)
    for (const MappedKernel &M : Cases)
      expectSimBitsEqual(Walked[I++], accumulateTransactions(M, *Tx),
                         M.K->Name + " on " +
                             std::to_string(Tx->laneCount()) + "x" +
                             std::to_string(Tx->transactionBytes()));
}

//===----------------------------------------------------------------------===//
// The ILP memo (lp/IlpMemo.h)
//===----------------------------------------------------------------------===//

namespace {

/// One solve and everything it left behind.
struct CountedSolve {
  IlpResult Result;
  obs::MetricsSnapshot Counts; ///< Its tally, lp.ilp_memo_hits aside.
  std::uint64_t Hits = 0;      ///< lp.ilp_memo_hits.
  SolverWork Charged;          ///< Its budget::threadCharges().
  std::vector<obs::Field> SolveEnd;
};

/// Solves \p B, under an active budget scope when \p Scoped (where the
/// simplex charges pivots) and with no scope otherwise.
CountedSolve countedSolve(const IlpBuilder &B, bool Scoped) {
  std::optional<budget::BudgetScope> Scope;
  if (Scoped)
    Scope.emplace(SolverBudget{/*MaxPivots=*/1ull << 60,
                               /*MaxIlpNodes=*/1ull << 60, /*WallMs=*/0});
  CountedSolve Out;
  obs::journal().reset();
  const SolverWork Before = budget::threadCharges();
  {
    obs::TallyScope Tally;
    Out.Result = B.solve();
    Out.Counts = Tally.tally().nonzero();
  }
  const SolverWork After = budget::threadCharges();
  Out.Charged = {After.Pivots - Before.Pivots, After.Nodes - Before.Nodes};
  Out.Hits = Out.Counts.counter("lp.ilp_memo_hits");
  Out.Counts.Counters.erase("lp.ilp_memo_hits");
  for (const obs::JournalRecord &R : obs::journal().snapshot())
    if (R.Type == "solve_end")
      Out.SolveEnd = R.Fields;
  return Out;
}

void expectSameSolve(const CountedSolve &Want, const CountedSolve &Got,
                     const std::string &What) {
  const IlpResult &A = Want.Result, &B = Got.Result;
  ASSERT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(A.Value, B.Value) << What;
  ASSERT_EQ(A.Point.size(), B.Point.size()) << What;
  for (std::size_t V = 0; V != A.Point.size(); ++V)
    EXPECT_EQ(A.Point[V], B.Point[V]) << What << " variable " << V;
  EXPECT_EQ(A.NodesExplored, B.NodesExplored) << What;
  EXPECT_EQ(A.NodesPruned, B.NodesPruned) << What;
  EXPECT_EQ(A.IncumbentUpdates, B.IncumbentUpdates) << What;
  EXPECT_EQ(A.MaxDepth, B.MaxDepth) << What;
  EXPECT_EQ(Want.Counts.Counters, Got.Counts.Counters) << What;
  ASSERT_EQ(Want.Counts.Histograms.size(), Got.Counts.Histograms.size())
      << What;
  for (const auto &[Name, H] : Want.Counts.Histograms) {
    const obs::HistogramSummary *G = Got.Counts.histogram(Name);
    ASSERT_NE(G, nullptr) << What << " " << Name;
    EXPECT_EQ(H.Count, G->Count) << What << " " << Name;
    EXPECT_EQ(H.Sum, G->Sum) << What << " " << Name;
    EXPECT_EQ(H.Min, G->Min) << What << " " << Name;
    EXPECT_EQ(H.Max, G->Max) << What << " " << Name;
    EXPECT_EQ(H.Buckets, G->Buckets) << What << " " << Name;
  }
  EXPECT_EQ(Want.Charged.Pivots, Got.Charged.Pivots) << What;
  EXPECT_EQ(Want.Charged.Nodes, Got.Charged.Nodes) << What;
  ASSERT_EQ(Want.SolveEnd.size(), Got.SolveEnd.size()) << What;
  for (std::size_t F = 0; F != Want.SolveEnd.size(); ++F) {
    EXPECT_EQ(Want.SolveEnd[F].Key, Got.SolveEnd[F].Key) << What;
    EXPECT_EQ(Want.SolveEnd[F].Value, Got.SolveEnd[F].Value)
        << What << " " << Want.SolveEnd[F].Key;
  }
}

} // namespace

// A memo hit replays its miss: every distinct dimension ILP the pipeline
// builds for the test kernels, the corpus, the seven Table II suites and
// fuzz seeds 1-40, each solved outside any memo (the truth) and then
// through one memo shared by all of them. The first pass runs with no
// budget scope (a miss, or a hit on an equal ILP of another kernel); the
// second runs under an active scope and is all hits, which must charge
// the pivots a scoped solve charges although their misses charged none.
// Status, point, value, node fields, the lp.* tally, the charged work
// and the solve_end record must all equal the truth's.
TEST(IlpMemo, HitsReplayTheirMiss) {
  std::vector<Kernel> Kernels = tuneBenchCorpus(0);
  for (const Kernel &K : {makeRunningExample(64), makeElementwise(64, 96),
                          makeTranspose(64, 96), makeProducerConsumer(64, 96),
                          makeBadOrderCopy(64, 96), makeRowReduction(64, 96),
                          makeGatherReduction(64)})
    Kernels.push_back(K);
  for (const std::string &Name : allNetworkNames())
    for (Kernel &K : makeNetworkSuite(Name).Operators)
      Kernels.push_back(std::move(K));
  for (unsigned Seed = 1; Seed <= 40; ++Seed)
    Kernels.push_back(makeRandomKernel(Seed));

  // Every kernel's distinct dimension ILPs, one memo per kernel.
  std::vector<std::pair<std::string, IlpBuilder>> Problems;
  for (const Kernel &K : Kernels) {
    IlpMemoScope Scope;
    runOperator(K, PipelineOptions());
    for (IlpBuilder &B : Scope.memo().problems())
      Problems.emplace_back(K.Name, std::move(B));
  }

  obs::journal().enable();
  std::vector<CountedSolve> Free, Scoped;
  for (const auto &[Name, B] : Problems) {
    Free.push_back(countedSolve(B, /*Scoped=*/false));
    Scoped.push_back(countedSolve(B, /*Scoped=*/true));
    ASSERT_EQ(Free.back().Hits + Scoped.back().Hits, 0u);
  }
  std::uint64_t FirstPassHits = 0;
  {
    IlpMemoScope Shared;
    for (std::size_t I = 0; I != Problems.size(); ++I) {
      CountedSolve Got = countedSolve(Problems[I].second, /*Scoped=*/false);
      FirstPassHits += Got.Hits;
      expectSameSolve(Free[I], Got,
                      Problems[I].first + " #" + std::to_string(I));
    }
    for (std::size_t I = 0; I != Problems.size(); ++I) {
      CountedSolve Got = countedSolve(Problems[I].second, /*Scoped=*/true);
      EXPECT_EQ(Got.Hits, 1u);
      expectSameSolve(Scoped[I], Got,
                      Problems[I].first + " #" + std::to_string(I) +
                          " scoped");
    }
  }
  obs::journal().disable();
  obs::journal().reset();
  EXPECT_GT(Problems.size(), 500u);
  // Kernels share ILPs (the suites repeat shapes), so the first pass
  // hits too.
  EXPECT_GT(FirstPassHits, 100u);
}

// Problems one key part apart must not share an entry. The base is one
// integer x in [0, 3] with 2x - 1 >= 0, an empty first objective level
// and a final level min x (optimum x = 1). Each variant changes one key
// part, and its optimum moves: x rational (1/2), the row's kind to <=
// (0), its constant to -3 (2), the final level to min -x (3). Inside one
// memo, after the base, each variant must still get its own optimum.
TEST(IlpMemo, NearMissesSolveAgain) {
  auto make = [](bool Integer, IlpBuilder::RowKind Kind, Int Constant,
                 Int FinalCoeff) {
    IlpBuilder B;
    unsigned X = B.addVar(Integer);
    B.addUpperBound(X, 3);
    SparseForm Row;
    Row.addTerm(X, 2);
    Row.addConstant(Constant);
    if (Kind == IlpBuilder::RowGe)
      B.addGe(Row);
    else
      B.addLe(Row);
    B.addObjective(SparseForm());
    SparseForm Final;
    Final.addTerm(X, FinalCoeff);
    B.addObjective(Final);
    return B;
  };
  const std::pair<const char *, IlpBuilder> Cases[] = {
      {"base", make(true, IlpBuilder::RowGe, -1, 1)},
      {"rational", make(false, IlpBuilder::RowGe, -1, 1)},
      {"row kind", make(true, IlpBuilder::RowLe, -1, 1)},
      {"constant", make(true, IlpBuilder::RowGe, -3, 1)},
      {"final level", make(true, IlpBuilder::RowGe, -1, -1)}};
  const Rational Want[] = {Rational(1), Rational(1, 2), Rational(0),
                           Rational(2), Rational(3)};
  for (std::size_t I = 0; I != std::size(Cases); ++I) {
    IlpResult Truth = Cases[I].second.solve();
    ASSERT_TRUE(Truth.isOptimal()) << Cases[I].first;
    ASSERT_EQ(Truth.Point[0], Want[I]) << Cases[I].first;
  }
  IlpMemoScope Memo;
  for (std::size_t I = 0; I != std::size(Cases); ++I) {
    IlpResult Got = Cases[I].second.solve();
    ASSERT_TRUE(Got.isOptimal()) << Cases[I].first;
    EXPECT_EQ(Got.Point[0], Want[I]) << Cases[I].first;
  }
  EXPECT_EQ(Memo.memo().size(), std::size(Cases));
}

// An armed lp fail point fires on a memoized problem as it does on a
// fresh one: the memo solves for real instead of serving the hit.
TEST(IlpMemo, ArmedFailPointsStillFire) {
  IlpBuilder B;
  unsigned X = B.addVar(/*IsInteger=*/true);
  B.addUpperBound(X, 3);
  SparseForm Objective;
  Objective.addTerm(X, 1);
  B.addObjective(Objective);
  IlpMemoScope Memo;
  ASSERT_TRUE(B.solve().isOptimal());
  for (const char *Site : {"lp.ilp", "lp.simplex"}) {
    failpoint::activate(Site);
    EXPECT_THROW(B.solve(), RecoverableError) << Site;
    failpoint::deactivate(Site);
  }
  obs::TallyScope Tally;
  ASSERT_TRUE(B.solve().isOptimal());
  EXPECT_EQ(Tally.tally().count(obs::metrics().counter("lp.ilp_memo_hits")),
            1u);
}
