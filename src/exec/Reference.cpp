//===- exec/Reference.cpp -------------------------------------------------===//

#include "exec/Reference.h"

#include "support/Status.h"

#include <algorithm>

using namespace pinj;

namespace {

/// Flattened element offset of \p A for iteration \p Iters.
Int flattenAccess(const Kernel &K, const Statement &S, const Access &A,
                  const IntVector &Iters) {
  const Tensor &T = K.Tensors[A.TensorId];
  std::vector<Int> Strides = T.strides();
  Int Offset = 0;
  for (unsigned D = 0, E = A.Indices.size(); D != E; ++D) {
    const IntVector &Row = A.Indices[D];
    Int Index = Row.back();
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      Index += Row[I] * Iters[I];
    if (Index < 0 || Index >= T.Shape[D])
      raiseError(StatusCode::Internal, "exec.interpret",
                 "access out of bounds during interpretation");
    Offset += Index * Strides[D];
  }
  return Offset;
}

void executeInstance(const Kernel &K, unsigned Stmt, const IntVector &Iters,
                     ExecBuffers &Buffers) {
  const Statement &S = K.Stmts[Stmt];
  double Reads[3] = {0, 0, 0};
  for (unsigned R = 0, E = S.Reads.size(); R != E; ++R)
    Reads[R] = Buffers.Tensors[S.Reads[R].TensorId]
                   [flattenAccess(K, S, S.Reads[R], Iters)];
  Buffers.Tensors[S.Write.TensorId][flattenAccess(K, S, S.Write, Iters)] =
      evaluateOp(S.Kind, Reads);
}

/// Walks the full iteration domain of \p S in row-major (original) order.
template <typename Fn>
void forEachIteration(const Statement &S, Fn &&Callback) {
  IntVector Iters(S.numIters(), 0);
  for (;;) {
    Callback(Iters);
    unsigned D = S.numIters();
    while (D-- > 0) {
      if (++Iters[D] < S.Extents[D])
        break;
      Iters[D] = 0;
      if (D == 0)
        return;
    }
    if (S.numIters() == 0)
      return;
  }
}

} // namespace

void pinj::referenceRunOriginal(const Kernel &K, ExecBuffers &Buffers) {
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt)
    forEachIteration(K.Stmts[Stmt], [&](const IntVector &Iters) {
      executeInstance(K, Stmt, Iters, Buffers);
    });
}

void pinj::referenceRunScheduled(const Kernel &K, const Schedule &S,
                                 ExecBuffers &Buffers) {
  struct Instance {
    IntVector Date;
    unsigned Stmt;
    IntVector Iters;
  };
  std::vector<Instance> Instances;
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt)
    forEachIteration(K.Stmts[Stmt], [&](const IntVector &Iters) {
      Instances.push_back({S.apply(K, Stmt, Iters, {}), Stmt, Iters});
    });
  std::stable_sort(Instances.begin(), Instances.end(),
                   [](const Instance &A, const Instance &B) {
                     if (A.Date != B.Date)
                       return A.Date < B.Date;
                     if (A.Stmt != B.Stmt)
                       return A.Stmt < B.Stmt;
                     return A.Iters < B.Iters;
                   });
  for (const Instance &I : Instances)
    executeInstance(K, I.Stmt, I.Iters, Buffers);
}
