//===- tests/exec_test.cpp - interpreter and semantic validation ----------===//

#include "exec/Interpreter.h"
#include "exec/Reference.h"
#include "influence/TreeBuilder.h"
#include "pipeline/Pipeline.h"
#include "sched/Scheduler.h"
#include "support/Status.h"
#include "DateWalkCheck.h"
#include "TestKernels.h"
#include "../bench/BenchUtil.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

using namespace pinj;

namespace {

SchedulerOptions baseline() {
  SchedulerOptions O;
  O.SerializeSccs = true;
  return O;
}

} // namespace

TEST(Interpreter, MakeInputsDeterministic) {
  Kernel K = makeElementwise(4, 4);
  ExecBuffers A = makeInputs(K, 7);
  ExecBuffers B = makeInputs(K, 7);
  EXPECT_TRUE(buffersAlmostEqual(A, B, 0.0));
  ExecBuffers C = makeInputs(K, 8);
  EXPECT_FALSE(buffersAlmostEqual(A, C, 0.0));
}

TEST(Interpreter, OriginalExecutionElementwise) {
  Kernel K = makeElementwise(2, 3);
  ExecBuffers Buffers = makeInputs(K, 1);
  std::vector<double> In = Buffers.Tensors[0];
  runOriginal(K, Buffers);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_DOUBLE_EQ(Buffers.Tensors[1][I], std::max(In[I], 0.0));
}

TEST(Interpreter, OriginalExecutionTranspose) {
  Kernel K = makeTranspose(3, 4);
  ExecBuffers Buffers = makeInputs(K, 2);
  std::vector<double> In = Buffers.Tensors[0]; // IN is 4x3.
  runOriginal(K, Buffers);
  for (Int I = 0; I != 3; ++I)
    for (Int J = 0; J != 4; ++J)
      EXPECT_DOUBLE_EQ(Buffers.Tensors[1][I * 4 + J], In[J * 3 + I]);
}

TEST(Interpreter, ReductionAccumulates) {
  Kernel K = makeRowReduction(2, 4);
  ExecBuffers Buffers = makeInputs(K, 3);
  std::vector<double> In = Buffers.Tensors[0];
  std::vector<double> Out0 = Buffers.Tensors[2];
  runOriginal(K, Buffers);
  for (Int I = 0; I != 2; ++I) {
    double Expected = Out0[I];
    for (Int J = 0; J != 4; ++J)
      Expected += In[I * 4 + J] * Buffers.Tensors[1][0];
    EXPECT_NEAR(Buffers.Tensors[2][I], Expected, 1e-12);
  }
}

TEST(Interpreter, ScheduledMatchesOriginalBaseline) {
  for (Kernel K : {makeRunningExample(6), makeProducerConsumer(5, 7),
                   makeRowReduction(4, 6), makeTranspose(5, 5)}) {
    SchedulerResult R = scheduleKernel(K, baseline());
    EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
  }
}

TEST(Interpreter, ScheduledMatchesOriginalInfluenced) {
  for (Kernel K : {makeRunningExample(8), makeProducerConsumer(4, 8),
                   makeRowReduction(4, 8)}) {
    InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
    SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
    EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
  }
}

TEST(Interpreter, DetectsBrokenSchedule) {
  // Reverse the producer/consumer order: consumer before producer reads
  // stale values, which the comparison must detect.
  Kernel K = makeProducerConsumer(4, 4);
  SchedulerResult R = scheduleKernel(K, baseline());
  Schedule Broken = R.Sched;
  // Swap the scalar ordering: P gets 1, Q gets 0.
  Broken.Transforms[0].at(0, Broken.Transforms[0].numCols() - 1) = 1;
  Broken.Transforms[1].at(0, Broken.Transforms[1].numCols() - 1) = 0;
  EXPECT_FALSE(scheduleIsSemanticallyEqual(K, Broken));
}

TEST(Interpreter, BuffersAlmostEqualTolerance) {
  Kernel K = makeElementwise(2, 2);
  ExecBuffers A = makeInputs(K, 1);
  ExecBuffers B = A;
  B.Tensors[0][0] += 1e-12;
  EXPECT_TRUE(buffersAlmostEqual(A, B, 1e-9));
  B.Tensors[0][0] += 1.0;
  EXPECT_FALSE(buffersAlmostEqual(A, B, 1e-9));
}

//===----------------------------------------------------------------------===//
// Property sweep: random seeds, every family, baseline and influenced
// schedules preserve semantics.
//===----------------------------------------------------------------------===//

class SemanticsProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SemanticsProperty, SchedulePreservesSemantics) {
  int Family = std::get<0>(GetParam());
  unsigned Seed = static_cast<unsigned>(std::get<1>(GetParam()));
  Kernel K = [&] {
    switch (Family) {
    case 0:
      return makeElementwise(4, 8);
    case 1:
      return makeTranspose(6, 4);
    case 2:
      return makeProducerConsumer(4, 8);
    case 3:
      return makeRowReduction(3, 8);
    default:
      return makeRunningExample(8);
    }
  }();
  SchedulerResult Base = scheduleKernel(K, baseline());
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, Base.Sched, Seed));
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult Infl = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, Infl.Sched, Seed));
}

INSTANTIATE_TEST_SUITE_P(FamiliesBySeed, SemanticsProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 3)));

//===----------------------------------------------------------------------===//
// Empirical validation of the parallel marking: iterations of a
// dimension marked IsParallel may execute in any order, so remapping
// that dimension's date through a random permutation must not change
// the result.
//===----------------------------------------------------------------------===//

namespace {

/// Executes K under S with every parallel dimension's date values
/// shuffled by a seeded permutation, then compares with the original
/// order.
bool parallelMarksHold(const Kernel &K, const Schedule &S, unsigned Seed) {
  // Permute date values per parallel dim: v -> (a*v + b) mod M with a
  // coprime to M is a simple seeded bijection on [0, M).
  std::vector<Int> Extent(S.numDims(), 0);
  for (unsigned Stmt = 0; Stmt != K.Stmts.size(); ++Stmt)
    for (unsigned D = 0; D != S.numDims(); ++D)
      for (unsigned I = 0; I != K.Stmts[Stmt].numIters(); ++I)
        if (S.Transforms[Stmt].at(D, I) != 0)
          Extent[D] = std::max(Extent[D], K.Stmts[Stmt].Extents[I]);

  struct Instance {
    IntVector Date;
    unsigned Stmt;
    IntVector Iters;
  };
  std::vector<Instance> Instances;
  for (unsigned Stmt = 0; Stmt != K.Stmts.size(); ++Stmt) {
    const Statement &St = K.Stmts[Stmt];
    IntVector Iters(St.numIters(), 0);
    for (;;) {
      IntVector Date = S.apply(K, Stmt, Iters, {});
      for (unsigned D = 0; D != S.numDims(); ++D) {
        if (!S.Dims[D].IsParallel || Extent[D] <= 1)
          continue;
        Int M = Extent[D];
        Int A = 1 + 2 * ((Seed + D) % 5); // Odd: coprime to 2^k; for
        while (gcdInt(A, M) != 1)         // other M walk to a unit.
          A += 2;
        Date[D] = (A * Date[D] + Seed % M) % M;
      }
      Instances.push_back({Date, Stmt, Iters});
      unsigned D = St.numIters();
      bool Done = true;
      while (D-- > 0) {
        if (++Iters[D] < St.Extents[D]) {
          Done = false;
          break;
        }
        Iters[D] = 0;
      }
      if (Done)
        break;
    }
  }
  std::stable_sort(Instances.begin(), Instances.end(),
                   [](const Instance &A, const Instance &B) {
                     if (A.Date != B.Date)
                       return A.Date < B.Date;
                     if (A.Stmt != B.Stmt)
                       return A.Stmt < B.Stmt;
                     return A.Iters < B.Iters;
                   });
  ExecBuffers Reference = makeInputs(K, Seed);
  ExecBuffers Shuffled = Reference;
  runOriginal(K, Reference);
  // Execute the instances in the permuted date order.
  CompiledKernel Code(K);
  std::vector<double *> Data = CompiledKernel::tensorData(Shuffled);
  for (const auto &I : Instances)
    Code.execute(I.Stmt, I.Iters.data(), Data.data());
  return buffersAlmostEqual(Reference, Shuffled, 1e-6);
}

} // namespace

class ParallelMarking
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelMarking, ShuffledParallelDimsPreserveSemantics) {
  int Family = std::get<0>(GetParam());
  unsigned Seed = static_cast<unsigned>(std::get<1>(GetParam()));
  Kernel K = [&] {
    switch (Family) {
    case 0:
      return makeElementwise(5, 7);
    case 1:
      return makeProducerConsumer(5, 6);
    case 2:
      return makeRowReduction(4, 6);
    default:
      return makeRunningExample(6);
    }
  }();
  SchedulerResult R = scheduleKernel(K, baseline());
  EXPECT_TRUE(parallelMarksHold(K, R.Sched, Seed)) << K.Name;
}

INSTANTIATE_TEST_SUITE_P(Families, ParallelMarking,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(3, 11)));

//===----------------------------------------------------------------------===//
// Differential: the flat-key executor against the date-sorting oracle
// (exec/Reference.h). Both run the same instances in the same order, so
// the buffers must be bit-identical, not merely within tolerance.
//===----------------------------------------------------------------------===//

namespace {

void expectMatchesOracle(const Kernel &K, const Schedule &S,
                         const std::string &What) {
  ExecBuffers Inputs = makeInputs(K, 1);
  ExecBuffers Fast = Inputs, Slow = Inputs;
  runOriginal(K, Fast);
  referenceRunOriginal(K, Slow);
  EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << What << " (original order)";
  Fast = Inputs;
  Slow = Inputs;
  runScheduled(K, S, Fast);
  referenceRunScheduled(K, S, Slow);
  EXPECT_TRUE(Fast.Tensors == Slow.Tensors) << What;
}

/// A schedule from explicit rows: Rows[Stmt][Dim] holds the iterator
/// coefficients, then the constant (the kernels have no parameters).
Schedule makeRowSchedule(const std::vector<std::vector<IntVector>> &Rows) {
  Schedule S;
  S.Dims.resize(Rows.front().size());
  for (const std::vector<IntVector> &StmtRows : Rows) {
    IntMatrix T(0, StmtRows.front().size());
    for (const IntVector &Row : StmtRows)
      T.appendRow(Row);
    S.Transforms.push_back(std::move(T));
  }
  return S;
}

DateOrder planOf(const Kernel &K, const Schedule &S) {
  CompiledKernel Code(K);
  return DateOrderExecutor().plan(Code, S);
}

/// The walk runs \p S, and in the oracle's order.
void expectWalkMatchesOracle(const Kernel &K, const Schedule &S,
                             const std::string &What) {
  EXPECT_EQ(planOf(K, S), DateOrder::Walk) << What;
  expectMatchesOracle(K, S, What);
}

} // namespace

TEST(ExecutorDifferential, TestKernelsBitIdenticalToOracle) {
  for (const Kernel &K :
       {makeRunningExample(6), makeElementwise(5, 7), makeTranspose(4, 6),
        makeProducerConsumer(5, 6), makeBadOrderCopy(6, 10),
        makeRowReduction(4, 9)}) {
    expectMatchesOracle(K, scheduleKernel(K, baseline()).Sched,
                        K.Name + "/baseline");
    InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
    expectMatchesOracle(K, scheduleKernel(K, SchedulerOptions(), &Tree).Sched,
                        K.Name + "/influenced");
  }
}

namespace {

/// A random (generally invalid) schedule: the differential compares
/// instance orders, so any date function works. Coefficients mix zero,
/// small values (many ties), and magnitudes near 2^20 and 2^40, so the
/// sort meets one-pass counting keys, multi-pass radix keys and
/// schedules whose packed ranges need more than one 64-bit key.
Schedule makeRandomSchedule(const Kernel &K, unsigned Seed) {
  unsigned State = Seed * 2654435761u + 7u;
  auto next = [&](unsigned Bound) {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State % Bound;
  };
  auto coefficient = [&]() -> Int {
    Int Sign = next(2) ? 1 : -1;
    switch (next(6)) {
    case 0:
    case 1:
      return 0;
    case 2:
    case 3:
      return Sign * static_cast<Int>(1 + next(3));
    case 4:
      return Sign * ((Int(1) << 20) + next(1000));
    default:
      return Sign * ((Int(1) << 40) + next(1000));
    }
  };
  Schedule S;
  S.Dims.resize(1 + next(5));
  for (const Statement &St : K.Stmts) {
    IntMatrix T(S.numDims(), K.rowWidth(St));
    for (unsigned D = 0; D != S.numDims(); ++D) {
      for (unsigned I = 0; I != St.numIters(); ++I)
        T.at(D, I) = coefficient();
      T.at(D, T.numCols() - 1) = coefficient();
    }
    S.Transforms.push_back(std::move(T));
  }
  return S;
}

} // namespace

TEST(ExecutorDifferential, RandomSchedulesBitIdenticalToOracle) {
  for (const Kernel &K : {makeRunningExample(5), makeProducerConsumer(4, 6),
                          makeRowReduction(3, 7), makeTranspose(5, 4)})
    for (unsigned Seed = 1; Seed != 41; ++Seed)
      expectMatchesOracle(K, makeRandomSchedule(K, Seed),
                          K.Name + " seed " + std::to_string(Seed));
}

TEST(ExecutorDifferential, DateOverflowRaisesLikeOracle) {
  Kernel K = makeElementwise(4, 4);
  Schedule Wide = scheduleKernel(K, baseline()).Sched;
  Wide.Transforms[0].at(0, 0) = Int(1) << 62; // Dates reach 3 * 2^62.
  // A unit row shifted to the top of the 64-bit range: it would walk.
  Schedule Shifted = makeRowSchedule({{{1, 0, 0}, {0, 1, 0}}});
  Shifted.Transforms[0].at(0, 2) = std::numeric_limits<Int>::max() - 2;
  ExecBuffers Buffers = makeInputs(K, 1);
  for (const Schedule &S : {Wide, Shifted}) {
    for (bool Oracle : {false, true}) {
      try {
        Oracle ? referenceRunScheduled(K, S, Buffers)
               : runScheduled(K, S, Buffers);
        ADD_FAILURE() << "no overflow raised, oracle=" << Oracle;
      } catch (const RecoverableError &E) {
        EXPECT_EQ(E.status().code(), StatusCode::Overflow) << Oracle;
      }
    }
    try {
      scheduleIsSemanticallyEqual(K, S);
      ADD_FAILURE() << "no overflow raised by the validator";
    } catch (const RecoverableError &E) {
      EXPECT_EQ(E.status().code(), StatusCode::Overflow);
    }
  }
  // One step lower the shifted dates fit, and the schedule walks.
  Shifted.Transforms[0].at(0, 2) -= 1;
  EXPECT_EQ(planOf(K, Shifted), DateOrder::Enumeration);
}

class CorpusOracle : public ::testing::TestWithParam<int> {};

TEST_P(CorpusOracle, IslAndInflBitIdenticalToOracle) {
  Kernel K = tuneBenchCorpus(0)[GetParam()];
  OperatorReport R = runOperator(K, PipelineOptions());
  ASSERT_FALSE(R.degraded()) << K.Name;
  expectMatchesOracle(K, R.Isl.Sched, K.Name + "/isl");
  expectMatchesOracle(K, R.Infl.Sched, K.Name + "/infl");
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusOracle, ::testing::Range(0, 22));

//===----------------------------------------------------------------------===//
// The date-order walk against the sorted fallback and the oracle.
//===----------------------------------------------------------------------===//

// Every schedule the pipeline builds for the corpus and the seven Table
// II suites is a loop permutation, shift or fusion: it walks. The corpus
// runs both paths here; the Table II suites (~257M instances per
// configuration) only plan here and run in tests/exec_table2_test.cpp.
TEST(DateWalk, PipelineSchedulesWalk) {
  std::vector<Kernel> Corpus = tuneBenchCorpus(0);
  std::vector<Kernel> Kernels = Corpus;
  for (const std::string &Name : allNetworkNames())
    for (Kernel &K : makeNetworkSuite(Name).Operators)
      Kernels.push_back(std::move(K));
  unsigned Identity = 0;
  for (unsigned I = 0, E = Kernels.size(); I != E; ++I) {
    const Kernel &K = Kernels[I];
    OperatorReport R = runOperator(K, PipelineOptions());
    ASSERT_FALSE(R.degraded()) << K.Name;
    CompiledKernel Code(K);
    DateOrderExecutor Executor;
    for (const auto &[Config, S] :
         {std::pair{"isl", &R.Isl.Sched}, std::pair{"novec", &R.Novec.Sched},
          std::pair{"infl", &R.Infl.Sched}}) {
      std::string What = K.Name + "/" + Config;
      DateOrder Kind = I < Corpus.size()
                           ? expectWalkMatchesSort(K, *S, What)
                           : Executor.plan(Code, *S);
      EXPECT_NE(Kind, DateOrder::Sorted) << What;
      Identity += Kind == DateOrder::Enumeration;
    }
  }
  EXPECT_EQ(Kernels.size(), 239u);
  EXPECT_GT(Identity, 0u);
  EXPECT_LT(Identity, 3 * Kernels.size());
}


// A row with a negative coefficient walks its loop downwards: here the
// recurrence along j runs from the last column to the first, outermost.
TEST(DateWalk, ReversedRow) {
  KernelBuilder B("reversed_recurrence");
  unsigned X = B.tensor("X", {5, 4});
  unsigned Y = B.tensor("Y", {5, 4});
  unsigned Acc = B.tensor("ACC", {5, 5});
  B.stmt("S", {{"i", 5}, {"j", 4}})
      .write(Acc, {"i", IndexExpr("j") + 1})
      .read(Acc, {"i", "j"})
      .read(X, {"i", "j"})
      .read(Y, {"i", "j"})
      .op(OpKind::Fma);
  Kernel K = B.build();
  expectWalkMatchesOracle(K, makeRowSchedule({{{0, -1, 3}, {1, 0, 0}}}),
                          "(3 - j, i)");
  expectWalkMatchesOracle(K, makeRowSchedule({{{-1, 0, 0}, {0, -1, 0}}}),
                          "(-i, -j)");
}

// An iterator in no date row is a tie loop: it runs innermost, in its
// original order, for every date, and the statement is merged with the
// one it is fused with rather than stepped in lockstep.
TEST(DateWalk, IteratorAbsentFromEveryRow) {
  KernelBuilder B("row_sum_then_scale");
  unsigned X = B.tensor("X", {6, 7});
  unsigned Sum = B.tensor("SUM", {6});
  unsigned Out = B.tensor("OUT", {6});
  B.stmt("R", {{"i", 6}, {"j", 7}})
      .write(Sum, {"i"})
      .read(Sum, {"i"})
      .read(X, {"i", "j"})
      .op(OpKind::Add);
  B.stmt("S", {{"i", 6}}).write(Out, {"i"}).read(Sum, {"i"}).op(OpKind::Neg);
  Kernel K = B.build();
  expectWalkMatchesOracle(
      K, makeRowSchedule({{{1, 0, 0}, {0, 0, 0}}, {{1, 0}, {0, 1}}}),
      "fused (i, 0) / (i, 1)");
  expectWalkMatchesOracle(
      K, makeRowSchedule({{{-1, 0, 5}, {0, 0, 1}}, {{1, 0}, {0, 0}}}),
      "fused, reversed (5 - i, 1) / (i, 0)");
}

// Equal dates run in statement order: S0 must read Z before S1 writes
// it, both when the statements step in lockstep (the same walk) and when
// their walks are merged (different extents; S1's walk starts first).
TEST(DateWalk, EqualKeysRunLowerStatementFirst) {
  auto Make = [](Int ReadExtent, Int Shift) {
    KernelBuilder B("read_before_write");
    unsigned X = B.tensor("X", {8});
    unsigned Y = B.tensor("Y", {8});
    unsigned Z = B.tensor("Z", {8});
    B.stmt("S0", {{"i", ReadExtent}})
        .write(Y, {"i"})
        .read(Z, {IndexExpr("i") + Shift})
        .op(OpKind::Assign);
    B.stmt("S1", {{"i", 8}}).write(Z, {"i"}).read(X, {"i"}).op(OpKind::Neg);
    return B.build();
  };
  expectWalkMatchesOracle(Make(8, 0),
                          makeRowSchedule({{{1, 0}}, {{1, 0}}}),
                          "lockstep (i) / (i)");
  expectWalkMatchesOracle(Make(4, 2),
                          makeRowSchedule({{{1, 2}}, {{1, 0}}}),
                          "merged (i + 2) / (i)");
}

// Fused statements with the same walk step in lockstep only while their
// smallest keys differ by less than the walk's key step: at (i) / (i + 1)
// and (i) / (i + 3), S1(i) must wait for S0(i + 1), which writes what it
// reads. At (i, j, 0) / (i, j, 1) the offsets fit inside one step.
TEST(DateWalk, LockstepNeedsOffsetsInsideOneKeyStep) {
  KernelBuilder B("shifted_consumer");
  unsigned X = B.tensor("X", {9});
  unsigned A = B.tensor("A", {9});
  unsigned Y = B.tensor("Y", {8});
  B.stmt("S0", {{"i", 8}}).write(A, {"i"}).read(X, {"i"}).op(OpKind::Neg);
  B.stmt("S1", {{"i", 8}})
      .write(Y, {"i"})
      .read(A, {IndexExpr("i") + 1})
      .op(OpKind::Assign);
  Kernel K = B.build();
  for (Int Shift : {1, 3})
    expectWalkMatchesOracle(K, makeRowSchedule({{{1, 0}}, {{1, Shift}}}),
                            "(i) / (i + " + std::to_string(Shift) + ")");

  Kernel Fused = makeProducerConsumer(5, 6);
  expectWalkMatchesOracle(
      Fused,
      makeRowSchedule({{{1, 0, 0}, {0, 1, 0}, {0, 0, 0}},
                       {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}),
      "(i, j, 0) / (i, j, 1)");
}

//===----------------------------------------------------------------------===//
// Out-of-bounds accesses: OUT[i] = IN[i + 1] with i < N leaves IN only at
// the far corner of the iteration box.
//===----------------------------------------------------------------------===//

namespace {

Kernel makeShiftedRead(Int N) {
  KernelBuilder B("shifted_read");
  unsigned In = B.tensor("IN", {N});
  unsigned Out = B.tensor("OUT", {N});
  B.stmt("S", {{"i", N}})
      .write(Out, {"i"})
      .read(In, {IndexExpr("i") + 1})
      .op(OpKind::Assign);
  return B.build();
}

template <typename Fn> void expectInterpretError(Fn &&Run, const char *What) {
  try {
    Run();
    ADD_FAILURE() << What << ": no error raised";
  } catch (const RecoverableError &E) {
    EXPECT_EQ(E.status().site(), "exec.interpret") << What;
    EXPECT_EQ(E.status().code(), StatusCode::Internal) << What;
  }
}

} // namespace

TEST(Interpreter, OutOfBoundsAccessRaises) {
  Kernel K = makeShiftedRead(8);
  Schedule S = scheduleKernel(K, baseline()).Sched;
  ExecBuffers Buffers = makeInputs(K, 1);
  expectInterpretError([&] { runOriginal(K, Buffers); }, "runOriginal");
  expectInterpretError([&] { runScheduled(K, S, Buffers); }, "runScheduled");
  expectInterpretError([&] { scheduleIsSemanticallyEqual(K, S); },
                       "scheduleIsSemanticallyEqual");
  expectInterpretError([&] { referenceRunOriginal(K, Buffers); },
                       "referenceRunOriginal");
  expectInterpretError([&] { referenceRunScheduled(K, S, Buffers); },
                       "referenceRunScheduled");

  // The in-bounds neighbour compiles.
  Kernel InBounds = makeShiftedRead(8);
  InBounds.Tensors[0].Shape[0] = 9;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(InBounds, S));
}

TEST(Interpreter, OutOfBoundsAccessDegradesValidation) {
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(makeShiftedRead(8), Options);
  EXPECT_FALSE(R.Validated);
  ASSERT_EQ(R.Degradations.size(), 1u);
  EXPECT_EQ(R.Degradations[0].Config, "validate");
  EXPECT_EQ(R.Degradations[0].Site, "exec.interpret");
  EXPECT_EQ(R.Degradations[0].Code, StatusCode::Internal);

  // Both schedules are in the enumeration order, which the validator
  // accepts without running: the kernel's bounds check still runs.
  Kernel InBounds = makeShiftedRead(8);
  InBounds.Tensors[0].Shape[0] = 9;
  EXPECT_EQ(planOf(InBounds, R.Isl.Sched), DateOrder::Enumeration);
  EXPECT_EQ(planOf(InBounds, R.Infl.Sched), DateOrder::Enumeration);
}

// The walk raises what the sorted order raises for a schedule it cannot
// run, before anything runs.
TEST(Interpreter, UnrunnableScheduleRaises) {
  Kernel K = makeElementwise(4, 4);
  Schedule Mismatched = scheduleKernel(K, baseline()).Sched;
  Mismatched.Transforms.pop_back();
  ExecBuffers Buffers = makeInputs(K, 1);
  expectInterpretError([&] { runScheduled(K, Mismatched, Buffers); },
                       "mismatched runScheduled");
  expectInterpretError([&] { scheduleIsSemanticallyEqual(K, Mismatched); },
                       "mismatched scheduleIsSemanticallyEqual");

  // 2^32 + 2^16 instances of T[0] = T[0]: nothing is allocated per
  // instance, and the plan refuses before any run.
  KernelBuilder B("too_many_instances");
  unsigned T = B.tensor("T", {1});
  B.stmt("S", {{"i", Int(1) << 16}, {"j", (Int(1) << 16) + 1}})
      .write(T, {Int(0)})
      .read(T, {Int(0)})
      .op(OpKind::Assign);
  Kernel Huge = B.build();
  Schedule S = makeRowSchedule({{{1, 0, 0}, {0, 1, 0}}});
  ExecBuffers Small = makeInputs(Huge, 1);
  expectInterpretError([&] { runScheduled(Huge, S, Small); },
                       "too many runScheduled");
  expectInterpretError([&] { scheduleIsSemanticallyEqual(Huge, S); },
                       "too many scheduleIsSemanticallyEqual");
}
