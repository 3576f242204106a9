//===- codegen/Mapping.cpp ------------------------------------------------===//

#include "codegen/Mapping.h"

#include "support/FailPoint.h"
#include "support/Status.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace pinj;

RowShape pinj::analyzeRow(const Kernel &K, const Schedule &S, unsigned Stmt,
                          unsigned Dim) {
  const Statement &St = K.Stmts[Stmt];
  const IntVector &Row = S.Transforms[Stmt].row(Dim);
  RowShape Shape;
  Shape.Shift = Row.back();
  unsigned NonZero = 0;
  for (unsigned I = 0, E = St.numIters(); I != E; ++I) {
    if (Row[I] == 0)
      continue;
    ++NonZero;
    Shape.Iter = I;
    if (Row[I] != 1)
      Shape.Kind = RowShape::Other;
  }
  // Parameter coefficients also disqualify unit/zero rows.
  for (unsigned P = 0, E = K.numParams(); P != E; ++P)
    if (Row[St.numIters() + P] != 0)
      Shape.Kind = RowShape::Other;
  if (Shape.Kind == RowShape::Other)
    return Shape;
  Shape.Kind = NonZero == 0   ? RowShape::Zero
               : NonZero == 1 ? RowShape::Unit
                              : RowShape::Other;
  return Shape;
}

bool pinj::isGeneratableSchedule(const Kernel &K, const Schedule &S) {
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt)
    for (unsigned D = 0, ND = S.numDims(); D != ND; ++D)
      if (analyzeRow(K, S, Stmt, D).Kind == RowShape::Other)
        return false;
  return true;
}

Int MappedKernel::threadsPerBlock() const {
  Int Threads = 1;
  for (const DimMapping &D : Dims)
    if (D.Role == DimRole::Thread || D.Role == DimRole::Vector)
      Threads = checkedMul(Threads, D.ThreadCount);
  return Threads;
}

Int MappedKernel::numBlocks() const {
  Int Blocks = 1;
  for (const DimMapping &D : Dims) {
    if (D.Role == DimRole::Block)
      Blocks = checkedMul(Blocks, D.Extent);
    else if (D.Role == DimRole::Thread || D.Role == DimRole::Vector)
      Blocks = checkedMul(Blocks, D.BlockFactor);
  }
  return Blocks;
}

MappedKernel pinj::mapToGpu(const Kernel &K, const Schedule &S,
                            const GpuMappingOptions &Options) {
  obs::Span Sp("codegen.map_to_gpu");
  static obs::Counter &Mapped =
      obs::metrics().counter("codegen.kernels_mapped");
  Mapped.inc();
  failpoint::hit("codegen.map");
  if (Sp.active())
    Sp.arg("kernel", K.Name).arg("dims", S.numDims());
  MappedKernel M;
  M.K = &K;
  M.Sched = S;
  M.Dims.assign(S.numDims(), DimMapping());
  M.IterDim.assign(K.Stmts.size(), {});
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt)
    M.IterDim[Stmt].assign(K.Stmts[Stmt].numIters(), -1);

  // Extents and iterator bindings.
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    Int Extent = 1;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      RowShape Shape = analyzeRow(K, S, Stmt, D);
      // Reachable when a caller skips the backendAccepts check, so this
      // must hold in release builds too.
      if (Shape.Kind == RowShape::Other)
        raiseError(StatusCode::Internal, "codegen.map",
                   "schedule row not generatable by this backend");
      if (Shape.Kind == RowShape::Unit) {
        M.IterDim[Stmt][Shape.Iter] = static_cast<int>(D);
        Extent = std::max(Extent, K.Stmts[Stmt].Extents[Shape.Iter]);
      }
    }
    M.Dims[D].Extent = Extent;
  }

  // Roles: scalar and vector first.
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    if (S.Dims[D].IsScalar) {
      M.Dims[D].Role = DimRole::Scalar;
      M.Dims[D].Extent = 1;
    } else if (!S.Dims[D].VectorStmts.empty()) {
      // The mapping pass skips vector-marked dimensions (paper, Sec. V).
      M.Dims[D].Role = DimRole::Vector;
      M.Dims[D].VectorWidth = S.Dims[D].VectorWidth;
    }
  }

  // Threads: innermost dims first, within the budget. Vector dims are
  // strip-mined lane groups (extent / width) and take the fastest lane
  // positions; then remaining thread-parallel dims. Dimensions that are
  // only parallel up to intra-block synchronization must keep all their
  // iterations in one block: no block splitting (the leftover loops
  // inside each thread instead).
  Int Budget = Options.MaxThreadsPerBlock;
  for (unsigned D = S.numDims(); D-- > 0;) {
    DimMapping &Dim = M.Dims[D];
    bool IsVector = Dim.Role == DimRole::Vector;
    bool FullyParallel = S.Dims[D].IsParallel;
    bool SyncParallel = S.Dims[D].ThreadParallel || FullyParallel;
    if (!IsVector && (Dim.Role != DimRole::Seq || !SyncParallel))
      continue; // Only vector dims and (sync-)parallel dims.
    if (Budget <= 1) {
      if (IsVector) {
        // No lanes left: the vector loop runs sequentially per thread.
        Dim.ThreadCount = 1;
        Dim.BlockFactor = 1;
      }
      continue;
    }
    Int Groups =
        IsVector ? ceilDiv(Dim.Extent, Dim.VectorWidth) : Dim.Extent;
    if (Groups <= Budget) {
      if (!IsVector)
        Dim.Role = DimRole::Thread;
      Dim.ThreadCount = Groups;
      Dim.BlockFactor = 1;
      Budget /= std::max<Int>(1, Groups);
      continue;
    }
    // Split: a power-of-two slice becomes threads; the rest becomes
    // blocks when fully parallel, or per-thread leftover loops when the
    // dimension needs intra-block sync.
    Int Slice = 1;
    while (Slice * 2 <= Budget)
      Slice *= 2;
    if (!IsVector)
      Dim.Role = DimRole::Thread;
    Dim.ThreadCount = Slice;
    Dim.BlockFactor = FullyParallel ? ceilDiv(Groups, Slice) : 1;
    Budget = 1;
  }

  // Remaining parallel dims become blocks; non-parallel stay sequential.
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    DimMapping &Dim = M.Dims[D];
    if (Dim.Role == DimRole::Seq && S.Dims[D].IsParallel)
      Dim.Role = DimRole::Block;
  }
  return M;
}
