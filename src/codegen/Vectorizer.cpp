//===- codegen/Vectorizer.cpp ---------------------------------------------===//

#include "codegen/Vectorizer.h"

#include "support/FailPoint.h"

#include "codegen/Mapping.h"
#include "poly/Dependence.h"

#include <algorithm>

using namespace pinj;

namespace {

/// True if dimension \p Dim is statement \p Stmt's innermost loop: the
/// row at Dim is unit and every later row is zero for this statement.
bool isInnermostLoopOf(const Kernel &K, const Schedule &S, unsigned Stmt,
                       unsigned Dim) {
  if (analyzeRow(K, S, Stmt, Dim).Kind != RowShape::Unit)
    return false;
  for (unsigned Later = Dim + 1, E = S.numDims(); Later != E; ++Later)
    if (analyzeRow(K, S, Stmt, Later).Kind != RowShape::Zero)
      return false;
  return true;
}

/// The widest width in {Preferred, 2} at which every statement in
/// \p InLoop can step \p Dim by whole vectors; 0 when none works.
unsigned resolveWidth(const Kernel &K, const Schedule &S,
                      const std::vector<unsigned> &InLoop, unsigned Dim,
                      unsigned Preferred) {
  for (unsigned Width : {Preferred, 2u}) {
    if (Width < 2)
      break;
    bool Ok = true;
    for (unsigned Stmt : InLoop) {
      RowShape Shape = analyzeRow(K, S, Stmt, Dim);
      if (K.Stmts[Stmt].Extents[Shape.Iter] % Width != 0 ||
          Shape.Shift % Width != 0) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      return Width;
  }
  return 0;
}

} // namespace

void pinj::stripVectorMarks(Schedule &S) {
  for (DimInfo &D : S.Dims) {
    D.VectorStmts.clear();
    D.VectorWidth = 0;
  }
}

unsigned
pinj::finalizeVectorMarks(const Kernel &K, Schedule &S,
                          bool DisableVectorization,
                          const std::vector<DependenceRelation> *Relations) {
  if (DisableVectorization) {
    stripVectorMarks(S);
    return 0;
  }
  failpoint::hit("codegen.vectorize");
  std::vector<DependenceRelation> Own;
  const std::vector<DependenceRelation> &Deps =
      Relations ? *Relations : (Own = computeDependences(K));
  unsigned Surviving = 0;
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    DimInfo &Info = S.Dims[D];
    if (Info.VectorStmts.empty() && Info.VectorWidth == 0)
      continue;
    Info.VectorStmts.clear();
    // Every statement looping at this dimension sits inside the vector
    // loop and must step by whole vectors; the dimension must also be
    // each one's innermost loop.
    std::vector<unsigned> InLoop;
    bool AllInnermost = true;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      RowShape Shape = analyzeRow(K, S, Stmt, D);
      if (Shape.Kind != RowShape::Unit)
        continue;
      InLoop.push_back(Stmt);
      AllInnermost &= isInnermostLoopOf(K, S, Stmt, D);
    }
    unsigned Width = 0;
    if (!InLoop.empty() && AllInnermost) {
      // The lanes (and the iterations each covers) must be independent.
      // Only relations between statements of the loop constrain them, so
      // the walk starts with every other relation settled.
      auto Outside = [&](unsigned X) { return !std::ranges::count(InLoop, X); };
      std::vector<bool> Settled(Deps.size());
      for (unsigned I = 0, E = Deps.size(); I != E; ++I)
        Settled[I] = Outside(Deps[I].SrcStmt) || Outside(Deps[I].DstStmt);
      for (unsigned Earlier = 0; Earlier != D; ++Earlier)
        markCarried(K, S, Deps, Earlier, Settled);
      if (dimParallelism(K, S, Deps, Settled, D).first)
        Width = resolveWidth(K, S, InLoop, D,
                             Info.VectorWidth ? Info.VectorWidth : 4);
    }
    if (Width == 0) {
      Info.VectorWidth = 0;
      continue;
    }
    Info.VectorWidth = Width;
    Info.VectorStmts = InLoop;
    ++Surviving;
  }
  return Surviving;
}
