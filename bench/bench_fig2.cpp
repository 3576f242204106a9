//===- bench/bench_fig2.cpp - Reproduces the paper's Fig. 2 ---------------===//
//
// Prints the running example (fused_mul_sub_mul_tensoradd from BERT) in
// its three forms: the initial pseudo-code (Fig. 2(a)), the reference
// polyhedral schedule that distributes the nests and keeps the
// inefficient D access (Fig. 2(b)), and the influenced schedule with the
// fused nest and the vectorizable innermost j loop (Fig. 2(c)), together
// with the simulated execution times of both GPU mappings.
//
//===----------------------------------------------------------------------===//

#include "codegen/Ast.h"
#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "influence/TreeBuilder.h"
#include "ir/Printer.h"
#include "obs/Metrics.h"
#include "ops/OpFactory.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace pinj;

int main() {
  const Int N = 64;
  Kernel K = makeFusedMulSubMulTensorAdd(N);
  PipelineOptions Options;

  std::printf("FIG. 2(a): initial pseudo-code (N = %lld)\n\n%s\n",
              static_cast<long long>(N), printKernel(K).c_str());

  // Fig. 2(b): the reference configuration.
  SchedulerOptions Isl = Options.Sched;
  Isl.SerializeSccs = true;
  SchedulerResult IslRun = scheduleKernel(K, Isl);
  finalizeVectorMarks(K, IslRun.Sched, /*DisableVectorization=*/true);
  MappedKernel IslMapped = mapToGpu(K, IslRun.Sched, Options.Mapping);
  std::printf("FIG. 2(b): reference polyhedral schedule (isl-like)\n\n");
  std::printf("%s\n%s\n", IslRun.Sched.str(K).c_str(),
              printAst(IslMapped).c_str());

  // Fig. 2(c): the influenced schedule.
  SchedulerResult InflRun = scheduleInfluenced(K, Options);
  finalizeVectorMarks(K, InflRun.Sched);
  MappedKernel InflMapped = mapToGpu(K, InflRun.Sched, Options.Mapping);
  std::printf("FIG. 2(c): influenced schedule (constraint injection)\n\n");
  std::printf("%s\n%s\n", InflRun.Sched.str(K).c_str(),
              printAst(InflMapped).c_str());

  std::printf("Generated CUDA-like kernel for Fig. 2(c):\n\n%s\n",
              printCuda(InflMapped).c_str());

  // Semantics check and simulated comparison.
  bool IslOk = scheduleIsSemanticallyEqual(K, IslRun.Sched);
  bool InflOk = scheduleIsSemanticallyEqual(K, InflRun.Sched);
  KernelSim IslSim = Options.Target->simulate(IslMapped);
  KernelSim InflSim = Options.Target->simulate(InflMapped);
  std::printf("semantics preserved: isl=%s infl=%s\n", IslOk ? "yes" : "NO",
              InflOk ? "yes" : "NO");
  std::printf("simulated time: isl=%.2fus infl=%.2fus (speedup %.2fx)\n",
              IslSim.TimeUs, InflSim.TimeUs,
              IslSim.TimeUs / InflSim.TimeUs);
  std::printf("memory transactions: isl=%.0f infl=%.0f; memory "
              "instructions: isl=%.0f infl=%.0f\n",
              IslSim.Transactions, InflSim.Transactions,
              IslSim.MemInstructions, InflSim.MemInstructions);
  std::printf("\nprocess metrics\n%s",
              obs::metrics().snapshot().table().c_str());
  return (IslOk && InflOk) ? 0 : 1;
}
