//===- tests/TestKernels.h - Shared kernels for unit tests -----*- C++ -*-===//

#ifndef POLYINJECT_TESTS_TESTKERNELS_H
#define POLYINJECT_TESTS_TESTKERNELS_H

#include "ir/Builder.h"

namespace pinj {

/// The paper's running example (Fig. 2(a)), the simplified
/// fused_mul_sub_mul_tensoradd operator from BERT:
///   X: B[i][k] = f(A[i][k])
///   Y: C[i][j] = g(C[i][j], B[i][k], D[k][i][j])
inline Kernel makeRunningExample(Int N) {
  KernelBuilder B("fused_mul_sub_mul_tensoradd");
  unsigned A = B.tensor("A", {N, N});
  unsigned Bt = B.tensor("B", {N, N});
  unsigned C = B.tensor("C", {N, N});
  unsigned D = B.tensor("D", {N, N, N});
  B.stmt("X", {{"i", N}, {"k", N}})
      .write(Bt, {"i", "k"})
      .read(A, {"i", "k"})
      .op(OpKind::Relu);
  B.stmt("Y", {{"i", N}, {"j", N}, {"k", N}})
      .write(C, {"i", "j"})
      .read(C, {"i", "j"})
      .read(Bt, {"i", "k"})
      .read(D, {"k", "i", "j"})
      .op(OpKind::Fma);
  return B.build();
}

/// A single element-wise statement: OUT[i][j] = relu(IN[i][j]).
inline Kernel makeElementwise(Int Rows, Int Cols) {
  KernelBuilder B("elementwise");
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("S", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(In, {"i", "j"})
      .op(OpKind::Relu);
  return B.build();
}

/// A 2D transpose: OUT[i][j] = IN[j][i].
inline Kernel makeTranspose(Int Rows, Int Cols) {
  KernelBuilder B("transpose");
  unsigned In = B.tensor("IN", {Cols, Rows});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("T", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(In, {"j", "i"})
      .op(OpKind::Assign);
  return B.build();
}

/// Producer/consumer chain with identical shapes:
///   P: T1[i][j] = exp(IN[i][j]);  Q: OUT[i][j] = T1[i][j] * T1[i][j]
inline Kernel makeProducerConsumer(Int Rows, Int Cols) {
  KernelBuilder B("producer_consumer");
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned T1 = B.tensor("T1", {Rows, Cols});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("P", {{"i", Rows}, {"j", Cols}})
      .write(T1, {"i", "j"})
      .read(In, {"i", "j"})
      .op(OpKind::Exp);
  B.stmt("Q", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(T1, {"i", "j"})
      .read(T1, {"i", "j"})
      .op(OpKind::Mul);
  return B.build();
}

/// A copy whose original loop order is layout-hostile: it iterates
/// (w, h) while both tensors are [h][w] row-major, so the original
/// innermost loop (h) is strided for every access. Fused transpose
/// chains hand such orders to the scheduler; a plain polyhedral
/// scheduler keeps them (no layout cost model), while the influenced
/// scheduler reorders and vectorizes.
inline Kernel makeBadOrderCopy(Int H, Int W) {
  KernelBuilder B("bad_order_copy");
  unsigned In = B.tensor("IN", {H, W});
  unsigned Out = B.tensor("OUT", {H, W});
  B.stmt("S", {{"w", W}, {"h", H}})
      .write(Out, {"h", "w"})
      .read(In, {"h", "w"})
      .op(OpKind::Relu);
  return B.build();
}

/// A row-sum reduction: OUT[i] = sum_j IN[i][j] (Fma form).
inline Kernel makeRowReduction(Int Rows, Int Cols) {
  KernelBuilder B("row_reduction");
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned One = B.tensor("ONE", {1});
  unsigned Out = B.tensor("OUT", {Rows});
  B.stmt("R", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i"})
      .read(Out, {"i"})
      .read(In, {"i", "j"})
      .read(One, {IndexExpr(Int(0))})
      .op(OpKind::Fma);
  return B.build();
}

/// A gather into a row reduction (fuzz seed 26 at extent 3):
///   P: T[i] = relu(IN[j][i][j]);  R: OUT[i] = OUT[i] + T[j] * IN[i][j][i]
/// Its per-dimension ILPs have fractional LP optima, so branch and bound
/// explores more nodes than there are solves.
inline Kernel makeGatherReduction(Int N) {
  KernelBuilder B("gather_reduction");
  unsigned In = B.tensor("IN", {N, N, N});
  unsigned T = B.tensor("T", {N});
  unsigned Out = B.tensor("OUT", {N});
  B.stmt("P", {{"i", N}, {"j", N}})
      .write(T, {"i"})
      .read(In, {"j", "i", "j"})
      .op(OpKind::Relu);
  B.stmt("R", {{"i", N}, {"j", N}})
      .write(Out, {"i"})
      .read(Out, {"i"})
      .read(T, {"j"})
      .read(In, {"i", "j", "i"})
      .op(OpKind::Fma);
  return B.build();
}

} // namespace pinj

#endif // POLYINJECT_TESTS_TESTKERNELS_H
