//===- ir/Kernel.cpp ------------------------------------------------------===//

#include "ir/Kernel.h"

using namespace pinj;

const char *pinj::opKindName(OpKind Kind) {
  switch (Kind) {
  case OpKind::Assign:
    return "assign";
  case OpKind::Add:
    return "add";
  case OpKind::Sub:
    return "sub";
  case OpKind::Mul:
    return "mul";
  case OpKind::Div:
    return "div";
  case OpKind::Max:
    return "max";
  case OpKind::Min:
    return "min";
  case OpKind::Relu:
    return "relu";
  case OpKind::Exp:
    return "exp";
  case OpKind::Rsqrt:
    return "rsqrt";
  case OpKind::Neg:
    return "neg";
  case OpKind::Fma:
    return "fma";
  case OpKind::MulSub:
    return "mulsub";
  }
  fatalError("unknown op kind");
}

std::string Kernel::verify() const {
  if (Stmts.empty())
    return "kernel has no statements";
  for (const Tensor &T : Tensors) {
    if (T.Name.empty())
      return "tensor with empty name";
    if (T.Shape.empty())
      return T.Name + ": tensor has no dimensions";
    for (Int E : T.Shape)
      if (E <= 0)
        return T.Name + ": nonpositive tensor extent";
    if (T.ElemBytes == 0)
      return T.Name + ": zero element size";
  }
  for (const Statement &S : Stmts) {
    if (S.Name.empty())
      return "statement with empty name";
    if (S.numIters() == 0)
      return S.Name + ": statement has no iterators";
    if (S.IterNames.size() != S.Extents.size())
      return S.Name + ": iterator name count differs from extent count";
    for (unsigned I = 0, E = S.numIters(); I != E; ++I)
      for (unsigned J = I + 1; J != E; ++J)
        if (S.IterNames[I] == S.IterNames[J])
          return S.Name + ": duplicate iterator '" + S.IterNames[I] + "'";
    if (S.OrigBeta.size() != S.numIters() + 1)
      return S.Name + ": beta vector must have numIters()+1 entries";
    if (S.Reads.size() != numOperands(S.Kind))
      return S.Name + ": operand count does not match op kind";
    for (Int E : S.Extents)
      if (E <= 0)
        return S.Name + ": nonpositive extent";
    std::vector<const Access *> All = S.allAccesses();
    for (const Access *A : All) {
      if (A->TensorId >= Tensors.size())
        return S.Name + ": access to unknown tensor";
      const Tensor &T = Tensors[A->TensorId];
      if (A->Indices.size() != T.Shape.size())
        return S.Name + ": access arity differs from tensor rank for " +
               T.Name;
      for (const IntVector &Index : A->Indices)
        if (Index.size() != rowWidth(S))
          return S.Name + ": index row width mismatch for " + T.Name;
    }
    if (!S.Write.IsWrite)
      return S.Name + ": write access not marked as write";
    for (const Access &R : S.Reads)
      if (R.IsWrite)
        return S.Name + ": read access marked as write";
  }
  return "";
}
