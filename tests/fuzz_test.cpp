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

#include "exec/Interpreter.h"
#include "exec/Reference.h"
#include "influence/TreeBuilder.h"
#include "ir/Builder.h"
#include "pipeline/Pipeline.h"
#include "poly/Farkas.h"
#include "sched/ConstraintBuilders.h"
#include "sched/Scheduler.h"
#include "support/FailPoint.h"
#include "TestKernels.h"
#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

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
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, AutoInfluencedScheduleValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, RandomTreeNeverBreaksValidity) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);
  InfluenceTree Tree = makeRandomTree(K, Seed);
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, FeautrierModeValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  SchedulerOptions Options;
  Options.UseFeautrierFallback = true;
  SchedulerResult R = scheduleKernel(K, Options);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
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

// Seeds 4 and 35 build a skewed schedule, which the executor cannot walk:
// it sorts the dates instead, and still runs the oracle's order.
TEST(DateWalk, SkewedFuzzSchedulesFallBackToSort) {
  for (unsigned Seed : {4u, 35u}) {
    Kernel K = makeRandomKernel(Seed);
    CompiledKernel Code(K);
    unsigned Sorted = 0;
    for (const auto &[Mode, S] : fuzzModeSchedules(K, Seed)) {
      DateOrderExecutor Executor;
      Sorted += Executor.plan(Code, S) == DateOrder::Sorted;
      ExecBuffers Fast = makeInputs(K, Seed), Slow = Fast;
      Executor.run(Fast);
      referenceRunScheduled(K, S, Slow);
      EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << K.Name << " " << Mode;
    }
    EXPECT_GT(Sorted, 0u) << K.Name;
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
    unsigned Pos = B.addVar("plain", /*IsInteger=*/false);
    unsigned Neg = C.IsEquality ? B.addVar("plain.n", false) : ~0u;
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
              << K.Name << " trial " << Trial << " "
              << Plain.Builder.varName(V);
      }
    }
  }
  EXPECT_GT(Compared, 1000u);
}
