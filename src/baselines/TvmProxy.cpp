//===- baselines/TvmProxy.cpp ---------------------------------------------===//

#include "baselines/TvmProxy.h"

#include "support/FailPoint.h"

#include "influence/AccessAnalysis.h"
#include "target/GpuAnalyticTarget.h"

#include <algorithm>

using namespace pinj;

Kernel pinj::extractStatement(const Kernel &K, unsigned Stmt) {
  Kernel Sub;
  Sub.Name = K.Name + "." + K.Stmts[Stmt].Name;
  Sub.ParamNames = K.ParamNames;
  Sub.Tensors = K.Tensors;
  Statement S = K.Stmts[Stmt];
  S.OrigBeta.assign(S.numIters() + 1, 0);
  Sub.Stmts.push_back(std::move(S));
  return Sub;
}

Schedule pinj::buildTvmSchedule(const Kernel &SubKernel) {
  assert(SubKernel.Stmts.size() == 1 && "TVM proxy schedules one statement");
  const Statement &S = SubKernel.Stmts[0];
  std::vector<AccessStrides> Strides = analyzeStrides(SubKernel, S);

  // Iterator order: original, with the iterator that makes the store
  // contiguous rotated to the innermost position (a hand-written
  // schedule binds threads to the output's contiguous axis).
  std::vector<unsigned> Order(S.numIters());
  for (unsigned I = 0; I != Order.size(); ++I)
    Order[I] = I;
  const AccessStrides &Write = Strides[0];
  for (unsigned I = 0, E = S.numIters(); I != E; ++I) {
    if (Write.isContiguousIn(I)) {
      Order.erase(std::find(Order.begin(), Order.end(), I));
      Order.push_back(I);
      break;
    }
  }

  Schedule Sched;
  Sched.Transforms.assign(1, IntMatrix(0, SubKernel.rowWidth(S)));
  for (unsigned D = 0, E = Order.size(); D != E; ++D) {
    IntVector Row(SubKernel.rowWidth(S), 0);
    Row[Order[D]] = 1;
    Sched.Transforms[0].appendRow(Row);
    Sched.Dims.push_back(DimInfo());
  }
  annotateParallelism(SubKernel, Sched);
  return Sched;
}

namespace {

/// True if some read access stays badly strided along the innermost
/// dimension of the manual schedule — the case TVM's library schedules
/// handle with a shared-memory tile (transposes and layout permutes).
bool needsSharedMemoryTile(const Kernel &SubKernel, const Schedule &S) {
  const Statement &Stmt = SubKernel.Stmts[0];
  if (S.numDims() == 0)
    return false;
  // Innermost bound iterator.
  const IntVector &Row = S.Transforms[0].row(S.numDims() - 1);
  unsigned Inner = Stmt.numIters();
  for (unsigned I = 0, E = Stmt.numIters(); I != E; ++I)
    if (Row[I] != 0)
      Inner = I;
  if (Inner == Stmt.numIters())
    return false;
  std::vector<AccessStrides> Strides = analyzeStrides(SubKernel, Stmt);
  for (unsigned A = 1; A < Strides.size(); ++A) {
    Int Stride = Strides[A].StridePerIter[Inner];
    if (Stride < 0)
      Stride = -Stride;
    if (Stride > 8)
      return true; // Uncoalesced read under the manual order.
  }
  return false;
}

} // namespace

TvmProxyResult pinj::simulateTvmProxy(const Kernel &K, const GpuModel &Model,
                                      const GpuMappingOptions &Mapping) {
  return simulateTvmProxy(K, target::GpuAnalyticTarget(Model), Mapping);
}

TvmProxyResult pinj::simulateTvmProxy(const Kernel &K,
                                      const target::TargetModel &T,
                                      const GpuMappingOptions &Mapping) {
  failpoint::hit("baselines.tvm");
  // The shared-memory tile is a CUDA rewrite: only the GPU target has it.
  const auto *Gpu = dynamic_cast<const target::GpuAnalyticTarget *>(&T);
  TvmProxyResult Result;
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
    Kernel Sub = extractStatement(K, Stmt);
    Schedule Sched = buildTvmSchedule(Sub);
    MappedKernel M = mapToGpu(Sub, Sched, Mapping);
    KernelSim Sim = T.simulate(M);
    if (Gpu && needsSharedMemoryTile(Sub, Sched)) {
      // Shared-memory tiling: both global sides coalesced (transactions
      // shrink to the useful bytes), at ~2x the memory instructions for
      // the staging through shared memory.
      const GpuModel &Model = Gpu->model();
      double IdealTx = Sim.UsefulBytes / Model.SectorBytes;
      if (IdealTx < Sim.Transactions) {
        Sim.Transactions = IdealTx;
        Sim.TransactionBytes = Sim.UsefulBytes;
        Sim.MemInstructions *= 2;
        Sim = finishGpuTime(Sim, Model);
      }
    }
    Result.TimeUs += Sim.TimeUs;
    ++Result.Launches;
    Result.Aggregate.Transactions += Sim.Transactions;
    Result.Aggregate.TransactionBytes += Sim.TransactionBytes;
    Result.Aggregate.UsefulBytes += Sim.UsefulBytes;
    Result.Aggregate.MemInstructions += Sim.MemInstructions;
    Result.Aggregate.ComputeInstructions += Sim.ComputeInstructions;
    Result.Aggregate.TimeUs += Sim.TimeUs;
  }
  return Result;
}
