//===- bench/BenchUtil.h - Shared helpers for the bench binaries -*- C++ -*-===//

#ifndef POLYINJECT_BENCH_BENCHUTIL_H
#define POLYINJECT_BENCH_BENCHUTIL_H

#include "lp/LexMin.h"
#include "ops/Networks.h"
#include "ops/OpFactory.h"
#include "pipeline/Pipeline.h"
#include "poly/Dependence.h"
#include "sched/ConstraintBuilders.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

namespace pinj {

/// Aggregated measurements for one network suite.
struct SuiteResult {
  std::string Name;
  unsigned Total = 0;
  unsigned Vec = 0;
  unsigned Infl = 0;
  // Times in milliseconds, all operators.
  double IslMs = 0, TvmMs = 0, NovecMs = 0, InflMs = 0;
  // Times in milliseconds, influenced operators only.
  double IslInflMs = 0, TvmInflMs = 0, NovecInflMs = 0, InflInflMs = 0;
};

inline SuiteResult measureSuite(const NetworkSuite &Suite,
                                const PipelineOptions &Options) {
  SuiteResult R;
  R.Name = Suite.Name;
  for (const Kernel &K : Suite.Operators) {
    OperatorReport Report = runOperator(K, Options);
    ++R.Total;
    R.Infl += Report.Influenced;
    R.Vec += Report.Influenced && Report.VecEligible;
    R.IslMs += Report.Isl.TimeUs / 1000.0;
    R.TvmMs += Report.Tvm.TimeUs / 1000.0;
    R.NovecMs += Report.Novec.TimeUs / 1000.0;
    R.InflMs += Report.Infl.TimeUs / 1000.0;
    if (Report.Influenced) {
      R.IslInflMs += Report.Isl.TimeUs / 1000.0;
      R.TvmInflMs += Report.Tvm.TimeUs / 1000.0;
      R.NovecInflMs += Report.Novec.TimeUs / 1000.0;
      R.InflInflMs += Report.Infl.TimeUs / 1000.0;
    }
  }
  return R;
}

/// Operator families shared by the perf benchmarks: four structurally
/// different shapes (fusable chain, hostile layout, the paper's fused
/// tensor expression, a reduce tail) parameterized by problem size.
inline Kernel kernelForFamily(int Family, Int N) {
  switch (Family) {
  case 0:
    return makeElementwiseChain("chain", N, N - 1, 4, 1);
  case 1:
    return makeHostileOrderCopy("hostile", N, N, 1);
  case 2:
    return makeFusedMulSubMulTensorAdd(N);
  default:
    return makeReduceTail("reduce", N, N, 1);
  }
}

inline const char *familyName(int Family) {
  switch (Family) {
  case 0:
    return "chain";
  case 1:
    return "hostile";
  case 2:
    return "fused";
  default:
    return "reduce";
  }
}

/// One scheduler-derived lexicographic ILP.
struct LexCase {
  std::string Name;
  IlpProblem Problem;
  std::vector<LexObjective> Levels;
};

/// Builds the dimension-0 scheduling ILP for \p K exactly as the
/// scheduler's Construction::attempt does: progression for every
/// statement, validity for every active relation, proximity for the
/// flow relations, then the full lexicographic objective stack.
inline LexCase makeSchedulingCase(std::string Name, const Kernel &K) {
  SchedulerOptions Options;
  std::vector<DependenceRelation> Deps = computeDependences(K);
  Schedule Partial;
  Partial.Transforms.assign(K.Stmts.size(), IntMatrix());
  for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
    Partial.Transforms[S] = IntMatrix(0, K.rowWidth(K.Stmts[S]));

  DimIlp Ilp = makeDimIlp(K, Options);
  for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
    addProgression(Ilp, K, Partial, S);
  for (const DependenceRelation &D : Deps)
    if (D.constrainsValidity())
      addValidity(Ilp, K, D);
  for (const DependenceRelation &D : Deps)
    if (D.constrainsValidity() && D.Kind == DepKind::Flow)
      addProximity(Ilp, K, D);
  addObjectives(Ilp, K, Options);

  LexCase Case;
  Case.Name = std::move(Name);
  std::tie(Case.Problem, Case.Levels) = Ilp.Builder.materialize();
  return Case;
}

/// The scheduler lexmin ILPs bench_lp times against the reference
/// solver: every operator family at three sizes plus two long chains.
inline std::vector<LexCase> schedulerLexCases() {
  std::vector<LexCase> Cases;
  for (int Family = 0; Family != 4; ++Family)
    for (Int N : {32, 64, 128}) {
      std::string Name = std::string(familyName(Family)) + "_" +
                         std::to_string(static_cast<long long>(N));
      Cases.push_back(makeSchedulingCase(Name, kernelForFamily(Family, N)));
    }
  Cases.push_back(
      makeSchedulingCase("bias_act_3", makeBiasActivation("bias", 128, 96, 3)));
  Cases.push_back(makeSchedulingCase(
      "ew_chain_long", makeElementwiseChain("chain", 64, 192, 6, 3)));
  return Cases;
}

/// The same corpus pinj-gen emits (tools/kernels/), built in-process.
/// Shared by the autotuning benchmarks (bench_tune, bench_surrogate) so
/// their gates measure the same operator population. \p Limit truncates
/// to the first N operators (0 keeps all).
inline std::vector<Kernel> tuneBenchCorpus(unsigned Limit) {
  std::vector<Kernel> Corpus;
  Corpus.push_back(makeFusedMulSubMulTensorAdd(64));
  Corpus.push_back(makeFusedMulSubMulTensorAdd(96));
  Corpus.push_back(makeElementwiseChain("ew_chain_short", 64, 128, 2, 1));
  Corpus.push_back(makeElementwiseChain("ew_chain_mid", 96, 96, 4, 2));
  Corpus.push_back(makeElementwiseChain("ew_chain_long", 64, 192, 6, 3));
  Corpus.push_back(makeElementwiseChain("ew_chain_wide", 32, 256, 3, 4));
  Corpus.push_back(makeBiasActivation("bias_relu", 64, 128, 1));
  Corpus.push_back(makeBiasActivation("bias_act_2", 96, 64, 2));
  Corpus.push_back(makeBiasActivation("bias_act_3", 128, 96, 3));
  Corpus.push_back(makeHostileOrderCopy("hostile_copy_a", 64, 96, 1));
  Corpus.push_back(makeHostileOrderCopy("hostile_copy_b", 96, 128, 2));
  Corpus.push_back(
      makeHostileOrderPermute3D("hostile_permute_a", 8, 32, 48, 1));
  Corpus.push_back(
      makeHostileOrderPermute3D("hostile_permute_b", 16, 24, 32, 2));
  Corpus.push_back(makeMiddlePermuted3D("middle_permuted_a", 8, 24, 64, 1));
  Corpus.push_back(makeMiddlePermuted3D("middle_permuted_b", 12, 16, 96, 2));
  Corpus.push_back(makeReduceTail("reduce_tail_a", 64, 128, 1));
  Corpus.push_back(makeReduceTail("reduce_tail_b", 96, 96, 2));
  Corpus.push_back(makeSoftmaxLike("softmax_like_a", 48, 96));
  Corpus.push_back(makeSoftmaxLike("softmax_like_b", 64, 64));
  Corpus.push_back(makeProducerConsumerPair("prodcons_a", 64, 96, 1));
  Corpus.push_back(makeProducerConsumerPair("prodcons_b", 96, 64, 2));
  Corpus.push_back(makeElementwiseChain("ew_chain_tail", 48, 160, 5, 5));
  if (Limit && Limit < Corpus.size())
    Corpus.resize(Limit);
  return Corpus;
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

} // namespace pinj

#endif // POLYINJECT_BENCH_BENCHUTIL_H
