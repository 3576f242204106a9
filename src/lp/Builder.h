//===- lp/Builder.h - Incremental ILP construction --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds mixed ILPs incrementally: variables are allocated on demand
/// (the Farkas builder introduces multipliers as it processes dependence
/// relations) and constraints are collected sparsely, then densified.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_BUILDER_H
#define POLYINJECT_LP_BUILDER_H

#include "lp/LexMin.h"

namespace pinj {

/// A sparse linear form over builder variables plus a constant.
struct SparseForm {
  std::vector<std::pair<unsigned, Int>> Terms; ///< (variable, coefficient)
  Int Constant = 0;

  void addTerm(unsigned Var, Int Coeff) {
    if (Coeff != 0)
      Terms.emplace_back(Var, Coeff);
  }
  void addConstant(Int C) { Constant = checkedAdd(Constant, C); }

  /// Adds \p Scale times \p Other into this form.
  void addScaled(const SparseForm &Other, Int Scale);

  /// Densifies into a row of width \p NumVars, accumulating duplicate
  /// terms.
  IntVector densify(unsigned NumVars) const;

  /// This form with its terms sorted by variable, duplicates summed and
  /// zeros dropped: two forms densify equally exactly when their
  /// canonical forms are equal.
  SparseForm canonical() const;

  bool operator==(const SparseForm &O) const {
    return Constant == O.Constant && Terms == O.Terms;
  }
};

class IlpMemo;

/// Incremental mixed-ILP builder. Variables are known by their index;
/// the builder keeps no names.
class IlpBuilder {
public:
  enum RowKind { RowGe, RowEq, RowLe };

  /// A captured slice of builder state: the variables and rows appended
  /// after a pair of marks. Replaying a block into a later builder state
  /// allocates fresh copies of its variables and re-appends its rows
  /// with every reference to a block-local variable rebased, so a block
  /// is reusable wherever the variables below VarBase keep their ids
  /// (the Farkas cache relies on makeDimIlp allocating the statement
  /// variables identically for every dimension).
  struct ConstraintBlock {
    unsigned VarBase = 0;
    std::vector<bool> Integrality; ///< One flag per block variable.
    std::vector<std::pair<SparseForm, RowKind>> Rows;
  };

  /// Allocates a variable; all variables are nonnegative. Integer
  /// variables participate in branch and bound.
  unsigned addVar(bool IsInteger);

  unsigned numVars() const { return Integrality.size(); }

  /// Adds Form >= 0.
  void addGe(const SparseForm &Form) { Rows.push_back({Form, RowGe}); }
  /// Adds Form == 0.
  void addEq(const SparseForm &Form) { Rows.push_back({Form, RowEq}); }
  /// Adds Form <= 0.
  void addLe(const SparseForm &Form) { Rows.push_back({Form, RowLe}); }
  /// Adds Var <= Bound.
  void addUpperBound(unsigned Var, Int Bound);

  /// Appends a lexicographic minimization level.
  void addObjective(const SparseForm &Form) { Objectives.push_back(Form); }

  unsigned numConstraints() const { return Rows.size(); }

  /// Removes constraints and objectives added after the marks, enabling
  /// cheap push/pop of constraint groups during scheduler backtracking.
  void truncate(unsigned NumRows, unsigned NumObjectives);

  /// Captures the variables and constraint rows appended since the
  /// marks (typically taken just before a constraint-group builder ran).
  ConstraintBlock captureBlock(unsigned VarMark, unsigned RowMark) const;

  /// Re-appends a captured block: allocates fresh variables for the
  /// block's own and rebases their row references; rows may also
  /// reference variables below the block's VarBase, which must still
  /// mean the same thing in this builder.
  void replayBlock(const ConstraintBlock &Block);

  /// Densifies the collected rows and objectives into a solver-ready
  /// problem; solve() is materialize() followed by solveLexMin.
  std::pair<IlpProblem, std::vector<LexObjective>> materialize() const;

  /// Solves lexicographic minimization over the collected objectives;
  /// inside an IlpMemoScope (lp/IlpMemo.h), through its memo.
  IlpResult solve() const;

private:
  friend class IlpMemo;

  struct Row {
    SparseForm Form;
    RowKind Kind;

    bool operator==(const Row &O) const {
      return Kind == O.Kind && Form == O.Form;
    }
  };

  std::vector<bool> Integrality;
  std::vector<Row> Rows;
  std::vector<SparseForm> Objectives;
};

} // namespace pinj

#endif // POLYINJECT_LP_BUILDER_H
