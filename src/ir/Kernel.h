//===- ir/Kernel.h - Fused-operator intermediate representation -*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-IR for fused AI/DL operators handed to the polyhedral
/// pipeline, mirroring what MindSpore's graph-kernel fusion hands to AKG:
/// a short sequence of statements, each a perfectly nested rectangular
/// loop nest computing one tensor element from affine tensor accesses.
/// The running example of the paper (Fig. 2(a)) is two such statements.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_IR_KERNEL_H
#define POLYINJECT_IR_KERNEL_H

#include "math/Matrix.h"

#include <string>
#include <vector>

namespace pinj {

/// A dense tensor with a concrete shape. Layout is row major; the last
/// dimension is contiguous in memory.
struct Tensor {
  std::string Name;
  std::vector<Int> Shape;
  unsigned ElemBytes = 4; ///< float32 by default.

  Int numElements() const {
    Int N = 1;
    for (Int S : Shape)
      N = checkedMul(N, S);
    return N;
  }

  /// Row-major element strides, one per dimension (last is 1).
  std::vector<Int> strides() const {
    std::vector<Int> S(Shape.size(), 1);
    for (unsigned D = Shape.size(); D-- > 1;)
      S[D - 1] = checkedMul(S[D], Shape[D]);
    return S;
  }
};

/// A tensor access: one affine index expression per tensor dimension.
/// Each index is a row over (statement iterators..., parameters..., 1).
struct Access {
  unsigned TensorId = 0;
  bool IsWrite = false;
  std::vector<IntVector> Indices;
};

/// The arithmetic performed by a statement; the interpreter in exec/
/// gives each kind a concrete semantics over the read values.
enum class OpKind {
  Assign, ///< w = r0
  Add,    ///< w = r0 + r1
  Sub,    ///< w = r0 - r1
  Mul,    ///< w = r0 * r1
  Div,    ///< w = r0 / r1
  Max,    ///< w = max(r0, r1)
  Min,    ///< w = min(r0, r1)
  Relu,   ///< w = max(r0, 0)
  Exp,    ///< w = exp(r0)
  Rsqrt,  ///< w = 1/sqrt(r0)
  Neg,    ///< w = -r0
  Fma,    ///< w = r0 + r1 * r2 (reduction update form)
  MulSub, ///< w = (r0 - r1) * r2
};

/// \returns the number of read operands \p Kind consumes.
constexpr unsigned numOperands(OpKind Kind) {
  switch (Kind) {
  case OpKind::Assign:
  case OpKind::Relu:
  case OpKind::Exp:
  case OpKind::Rsqrt:
  case OpKind::Neg:
    return 1;
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
  case OpKind::Max:
  case OpKind::Min:
    return 2;
  case OpKind::Fma:
  case OpKind::MulSub:
    return 3;
  }
  fatalError("unknown op kind");
}

/// \returns a short mnemonic ("add", "fma", ...).
const char *opKindName(OpKind Kind);

/// One statement: a perfectly nested rectangular loop nest
///   for i0 in [0, Extents[0]) ... W[..] = op(R0[..], R1[..], ...)
/// Its position in the original program is encoded by OrigBeta, the
/// interleaving vector of the classic 2d+1 representation: the original
/// schedule is (Beta[0], i0, Beta[1], i1, ..., Beta[d]).
struct Statement {
  std::string Name;
  std::vector<std::string> IterNames;
  std::vector<Int> Extents;
  Access Write;
  std::vector<Access> Reads;
  OpKind Kind = OpKind::Assign;
  std::vector<Int> OrigBeta;

  unsigned numIters() const { return Extents.size(); }

  /// All accesses, write first.
  std::vector<const Access *> allAccesses() const {
    std::vector<const Access *> All;
    All.push_back(&Write);
    for (const Access &R : Reads)
      All.push_back(&R);
    return All;
  }
};

/// A fused operator: tensors plus an ordered list of statements.
/// Parameters are symbolic sizes; the operator library uses concrete
/// shapes (NumParams == 0), but the polyhedral layers are parametric.
struct Kernel {
  std::string Name;
  std::vector<std::string> ParamNames;
  std::vector<Tensor> Tensors;
  std::vector<Statement> Stmts;

  unsigned numParams() const { return ParamNames.size(); }

  /// Width of an affine row of statement \p S: iters + params + 1.
  unsigned rowWidth(const Statement &S) const {
    return S.numIters() + numParams() + 1;
  }

  /// Checks structural invariants (access arity, row widths, betas);
  /// \returns an empty string if the kernel is well formed, else a
  /// diagnostic.
  std::string verify() const;
};

} // namespace pinj

#endif // POLYINJECT_IR_KERNEL_H
