//===- sched/ConstraintBuilders.cpp ---------------------------------------===//

#include "sched/ConstraintBuilders.h"

#include "math/LinearAlgebra.h"
#include "obs/Metrics.h"
#include "poly/Farkas.h"
#include "support/FailPoint.h"

using namespace pinj;

DimIlp pinj::makeDimIlp(const Kernel &K, const SchedulerOptions &Options) {
  DimIlp Ilp;
  for (const Statement &S : K.Stmts) {
    DimIlp::StmtVars Vars;
    for (unsigned I = 0, E = S.numIters(); I != E; ++I) {
      unsigned V = Ilp.Builder.addVar(/*IsInteger=*/true);
      Ilp.Builder.addUpperBound(V, Options.CoeffBound);
      Vars.Iter.push_back(V);
    }
    for (unsigned P = 0, E = K.numParams(); P != E; ++P) {
      unsigned V = Ilp.Builder.addVar(/*IsInteger=*/true);
      Ilp.Builder.addUpperBound(V, Options.CoeffBound);
      Vars.Param.push_back(V);
    }
    Vars.Const = Ilp.Builder.addVar(/*IsInteger=*/true);
    Ilp.Builder.addUpperBound(Vars.Const, Options.ConstBound);
    Ilp.Stmts.push_back(std::move(Vars));
  }
  for (unsigned P = 0, E = K.numParams(); P != E; ++P)
    Ilp.U.push_back(Ilp.Builder.addVar(/*IsInteger=*/false));
  Ilp.W = Ilp.Builder.addVar(/*IsInteger=*/false);
  return Ilp;
}

namespace {

/// Builds the variable-coefficient affine form of phi_T(t) - phi_S(s)
/// over the relation space of \p D, scaled by \p Sign (+1 for validity,
/// -1 inside the proximity bound).
VarAffineForm scheduleDifferenceForm(DimIlp &Ilp, const Kernel &K,
                                     const DependenceRelation &D, Int Sign) {
  const Statement &Src = K.Stmts[D.SrcStmt];
  const Statement &Dst = K.Stmts[D.DstStmt];
  const DimIlp::StmtVars &SrcVars = Ilp.Stmts[D.SrcStmt];
  const DimIlp::StmtVars &DstVars = Ilp.Stmts[D.DstStmt];

  VarAffineForm Psi(D.Rel.space());
  for (unsigned I = 0, E = Src.numIters(); I != E; ++I)
    Psi.dimCoeff(I).addTerm(SrcVars.Iter[I], checkedNeg(Sign));
  for (unsigned I = 0, E = Dst.numIters(); I != E; ++I)
    Psi.dimCoeff(Src.numIters() + I).addTerm(DstVars.Iter[I], Sign);
  for (unsigned P = 0, E = K.numParams(); P != E; ++P) {
    SparseForm &Col = Psi.Cols[D.Rel.space().NumDims + P];
    Col.addTerm(DstVars.Param[P], Sign);
    Col.addTerm(SrcVars.Param[P], checkedNeg(Sign));
  }
  Psi.constCoeff().addTerm(DstVars.Const, Sign);
  Psi.constCoeff().addTerm(SrcVars.Const, checkedNeg(Sign));
  return Psi;
}

} // namespace

void pinj::addValidity(DimIlp &Ilp, const Kernel &K,
                       const DependenceRelation &D) {
  VarAffineForm Psi = scheduleDifferenceForm(Ilp, K, D, /*Sign=*/1);
  addFarkasNonNegative(Ilp.Builder, D.Rel, Psi);
}

void pinj::addProximity(DimIlp &Ilp, const Kernel &K,
                        const DependenceRelation &D) {
  // u.p + w - (phi_T - phi_S) >= 0 over the relation.
  VarAffineForm Psi = scheduleDifferenceForm(Ilp, K, D, /*Sign=*/-1);
  for (unsigned P = 0, E = K.numParams(); P != E; ++P)
    Psi.Cols[D.Rel.space().NumDims + P].addTerm(Ilp.U[P], 1);
  Psi.constCoeff().addTerm(Ilp.W, 1);
  addFarkasNonNegative(Ilp.Builder, D.Rel, Psi);
}

namespace {

/// Runs \p Add and memoizes the variables/rows it appended; replays
/// them (with multiplier ids rebased) on later hits for the same key.
template <typename AddFn>
bool cachedFarkasBlock(
    std::map<std::pair<unsigned, int>, IlpBuilder::ConstraintBlock> &Blocks,
    std::pair<unsigned, int> Key, IlpBuilder &Builder, AddFn Add) {
  auto It = Blocks.find(Key);
  if (It != Blocks.end()) {
    static obs::Counter &Hits =
        obs::metrics().counter("sched.farkas_cache_hits");
    Hits.inc();
    Builder.replayBlock(It->second);
    return true;
  }
  unsigned VarMark = Builder.numVars();
  unsigned RowMark = Builder.numConstraints();
  Add();
  Blocks.emplace(Key, Builder.captureBlock(VarMark, RowMark));
  return false;
}

} // namespace

void pinj::FarkasCache::addValidity(DimIlp &Ilp, const Kernel &K,
                                    unsigned Dep,
                                    const DependenceRelation &D) {
  if (cachedFarkasBlock(Blocks, {Dep, 0}, Ilp.Builder,
                        [&] { pinj::addValidity(Ilp, K, D); }))
    ++HitCount;
}

void pinj::FarkasCache::addProximity(DimIlp &Ilp, const Kernel &K,
                                     unsigned Dep,
                                     const DependenceRelation &D) {
  if (cachedFarkasBlock(Blocks, {Dep, 1}, Ilp.Builder,
                        [&] { pinj::addProximity(Ilp, K, D); }))
    ++HitCount;
}

void pinj::addProgression(DimIlp &Ilp, const Kernel &K,
                          const Schedule &Partial, unsigned Stmt) {
  const Statement &S = K.Stmts[Stmt];
  const DimIlp::StmtVars &Vars = Ilp.Stmts[Stmt];
  IntMatrix H = Partial.Transforms.empty()
                    ? IntMatrix(0, S.numIters())
                    : Partial.iteratorPart(K, Stmt);
  // Drop all-zero rows (padding dims) before computing the rank.
  IntMatrix NonZero(0, S.numIters());
  for (unsigned R = 0, E = H.numRows(); R != E; ++R)
    if (!isZeroVector(H.row(R)))
      NonZero.appendRow(H.row(R));

  if (matrixRank(NonZero) >= S.numIters()) {
    // Full rank: this statement only gets padding rows from now on.
    for (unsigned V : Vars.Iter) {
      SparseForm Zero;
      Zero.addTerm(V, 1);
      Ilp.Builder.addEq(Zero);
    }
    for (unsigned V : Vars.Param) {
      SparseForm Zero;
      Zero.addTerm(V, 1);
      Ilp.Builder.addEq(Zero);
    }
    return;
  }

  // Paper Eq. (3): the iterator coefficients sum to at least one.
  SparseForm Sum;
  for (unsigned V : Vars.Iter)
    Sum.addTerm(V, 1);
  Sum.addConstant(-1);
  Ilp.Builder.addGe(Sum);

  // Paper Eq. (4): stay in the nonnegative part of the orthogonal
  // complement of the rows found so far, with at least one strictly
  // positive component.
  IntMatrix Basis = nullspaceBasis(NonZero);
  if (Basis.numRows() == 0)
    return;
  SparseForm Total;
  for (unsigned R = 0, E = Basis.numRows(); R != E; ++R) {
    SparseForm Component;
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I) {
      Component.addTerm(Vars.Iter[I], Basis.at(R, I));
      Total.addTerm(Vars.Iter[I], Basis.at(R, I));
    }
    Ilp.Builder.addGe(Component);
  }
  Total.addConstant(-1);
  Ilp.Builder.addGe(Total);
}

void pinj::addInfluence(DimIlp &Ilp, const Kernel &K,
                        const InfluenceNode &Node, const Schedule &Partial,
                        unsigned CurDim) {
  (void)K;
  for (const InfluenceConstraint &C : Node.Constraints) {
    SparseForm Form;
    Form.addConstant(C.Constant);
    for (const CoeffTerm &T : C.Terms) {
      if (T.Dim == CurDim) {
        const DimIlp::StmtVars &Vars = Ilp.Stmts[T.Stmt];
        unsigned NumIters = Vars.Iter.size();
        unsigned NumParams = Vars.Param.size();
        unsigned Var;
        if (T.CoeffIdx < NumIters)
          Var = Vars.Iter[T.CoeffIdx];
        else if (T.CoeffIdx < NumIters + NumParams)
          Var = Vars.Param[T.CoeffIdx - NumIters];
        else
          Var = Vars.Const;
        Form.addTerm(Var, T.Factor);
        continue;
      }
      assert(T.Dim < CurDim &&
             "influence constraint references a future dimension");
      Int Fixed = Partial.Transforms[T.Stmt].at(T.Dim, T.CoeffIdx);
      Form.addConstant(checkedMul(T.Factor, Fixed));
    }
    switch (C.Rel) {
    case InfluenceConstraint::Ge:
      Ilp.Builder.addGe(Form);
      break;
    case InfluenceConstraint::Eq:
      Ilp.Builder.addEq(Form);
      break;
    case InfluenceConstraint::Le:
      Ilp.Builder.addLe(Form);
      break;
    }
  }
}

void pinj::addInfluenceObjectives(DimIlp &Ilp, const InfluenceNode &Node,
                                  unsigned CurDim) {
  for (const InfluenceObjective &Objective : Node.Objectives) {
    SparseForm Form;
    for (const CoeffTerm &T : Objective.Terms) {
      if (T.Dim != CurDim)
        continue; // Fixed dimensions contribute constants only.
      const DimIlp::StmtVars &Vars = Ilp.Stmts[T.Stmt];
      unsigned NumIters = Vars.Iter.size();
      unsigned NumParams = Vars.Param.size();
      unsigned Var;
      if (T.CoeffIdx < NumIters)
        Var = Vars.Iter[T.CoeffIdx];
      else if (T.CoeffIdx < NumIters + NumParams)
        Var = Vars.Param[T.CoeffIdx - NumIters];
      else
        Var = Vars.Const;
      Form.addTerm(Var, T.Factor);
    }
    if (!Form.Terms.empty())
      Ilp.Builder.addObjective(Form);
  }
}

std::vector<unsigned> pinj::addFeautrierSatisfaction(
    DimIlp &Ilp, const Kernel &K,
    const std::vector<const DependenceRelation *> &Deps) {
  std::vector<unsigned> SatVars;
  for (unsigned I = 0, E = Deps.size(); I != E; ++I) {
    const DependenceRelation &D = *Deps[I];
    unsigned Sat = Ilp.Builder.addVar(/*IsInteger=*/true);
    Ilp.Builder.addUpperBound(Sat, 1);
    // phi_T - phi_S - sat >= 0 over the relation.
    VarAffineForm Psi = scheduleDifferenceForm(Ilp, K, D, /*Sign=*/1);
    Psi.constCoeff().addTerm(Sat, -1);
    addFarkasNonNegative(Ilp.Builder, D.Rel, Psi);
    SatVars.push_back(Sat);
  }
  // Highest priority: minimize the number of unsatisfied relations.
  SparseForm Objective;
  for (unsigned Sat : SatVars)
    Objective.addTerm(Sat, -1);
  Objective.addConstant(SatVars.size());
  Ilp.Builder.addObjective(Objective);
  return SatVars;
}

void pinj::addObjectives(DimIlp &Ilp, const Kernel &K,
                         const SchedulerOptions &Options,
                         const InfluenceNode *Node, unsigned CurDim) {
  // Level 1: sum of u (isl's proximity form, first component).
  SparseForm USum;
  for (unsigned V : Ilp.U)
    USum.addTerm(V, 1);
  Ilp.Builder.addObjective(USum);
  // Level 2: w.
  SparseForm WForm;
  WForm.addTerm(Ilp.W, 1);
  Ilp.Builder.addObjective(WForm);
  // Injected objective levels sit between the proximity levels and the
  // built-in tie-breakers.
  if (Node)
    addInfluenceObjectives(Ilp, *Node, CurDim);
  // Level 3: total iterator coefficient magnitude (simplest solution).
  SparseForm CoeffSum;
  for (const DimIlp::StmtVars &Vars : Ilp.Stmts)
    for (unsigned V : Vars.Iter)
      CoeffSum.addTerm(V, 1);
  Ilp.Builder.addObjective(CoeffSum);
  // Level 4: parameter coefficients and shifts.
  SparseForm ShiftSum;
  for (const DimIlp::StmtVars &Vars : Ilp.Stmts) {
    for (unsigned V : Vars.Param)
      ShiftSum.addTerm(V, 1);
    ShiftSum.addTerm(Vars.Const, 1);
  }
  Ilp.Builder.addObjective(ShiftSum);
  // Level 5: prefer the original loop order (earlier iterators first),
  // mirroring isl's deterministic preference for identity-like bands.
  if (Options.PreferOriginalOrder) {
    SparseForm OrderPref;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      const DimIlp::StmtVars &Vars = Ilp.Stmts[Stmt];
      Int Weight = 1;
      for (unsigned I = 0, NI = Vars.Iter.size(); I != NI; ++I) {
        OrderPref.addTerm(Vars.Iter[I], Weight);
        Weight = checkedMul(Weight, 2);
      }
    }
    Ilp.Builder.addObjective(OrderPref);
  }
}

void pinj::appendSolution(const DimIlp &Ilp, const IlpResult &R,
                          const Kernel &K, Schedule &Partial) {
  // A malformed solver result here would silently corrupt the schedule,
  // so the integrality checks are real runtime checks, not asserts.
  if (!R.isOptimal())
    raiseError(StatusCode::SolverError, "sched.solution",
               "appending a failed solve");
  auto integerAt = [&](unsigned Var, const char *What) {
    if (Var >= R.Point.size() || !R.Point[Var].isInteger())
      raiseError(StatusCode::SolverError, "sched.solution",
                 std::string("non-integer ") + What +
                     " in ILP solution");
    return R.Point[Var].numerator();
  };
  if (Partial.Transforms.empty())
    Partial.Transforms.resize(K.Stmts.size());
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
    const Statement &S = K.Stmts[Stmt];
    const DimIlp::StmtVars &Vars = Ilp.Stmts[Stmt];
    IntVector Row(K.rowWidth(S), 0);
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      Row[I] = integerAt(Vars.Iter[I], "coefficient");
    for (unsigned P = 0, NP = K.numParams(); P != NP; ++P)
      Row[S.numIters() + P] = integerAt(Vars.Param[P], "coefficient");
    Row.back() = integerAt(Vars.Const, "shift");
    if (Partial.Transforms[Stmt].numRows() == 0 &&
        Partial.Transforms[Stmt].numCols() == 0)
      Partial.Transforms[Stmt] = IntMatrix(0, K.rowWidth(S));
    Partial.Transforms[Stmt].appendRow(Row);
  }
}
