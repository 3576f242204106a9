//===- sched/InfluenceTree.h - Influence constraint trees -------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central abstraction (Section IV-A4): an ordered tree whose
/// node at depth d carries affine constraints on the scheduling
/// coefficients of all statements for dimensions 0..d. Sibling order is
/// priority (leftmost first); the scheduler visits the tree depth-first
/// and backtracks across siblings and ancestors when a constrained ILP
/// has no solution.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SCHED_INFLUENCETREE_H
#define POLYINJECT_SCHED_INFLUENCETREE_H

#include "ir/Kernel.h"

#include <memory>
#include <string>
#include <vector>

namespace pinj {

/// One term of an influence constraint: Factor times scheduling
/// coefficient CoeffIdx of statement Stmt at dimension Dim. CoeffIdx
/// indexes (iterators..., params..., constant), i.e. T_{Stmt,Dim,CoeffIdx}
/// in the paper's notation.
struct CoeffTerm {
  unsigned Stmt = 0;
  unsigned Dim = 0;
  unsigned CoeffIdx = 0;
  Int Factor = 1;
};

/// A linear constraint over scheduling coefficients:
/// sum(Terms) + Constant (Rel) 0.
struct InfluenceConstraint {
  enum RelTy { Ge, Eq, Le };

  std::vector<CoeffTerm> Terms;
  Int Constant = 0;
  RelTy Rel = Eq;
};

/// An injected objective: a linear form over scheduling coefficients,
/// minimized as an extra lexicographic level between the proximity
/// levels and the built-in tie-breakers (paper Section IV-A4: nodes may
/// also specify new objective functions with priorities).
struct InfluenceObjective {
  std::vector<CoeffTerm> Terms;
};

/// A node of the influence constraint tree. Depth equals the scheduling
/// dimension the node applies to; constraints may also reference earlier
/// dimensions (their coefficients are already fixed when the node is
/// visited and are substituted as constants).
struct InfluenceNode {
  unsigned Depth = 0;
  std::vector<InfluenceConstraint> Constraints;
  /// Extra lexicographic objective levels, highest priority first.
  std::vector<InfluenceObjective> Objectives;
  /// Meta-requirement: the dimension only counts as successful if it is
  /// parallel (coincident); otherwise the scheduler backtracks exactly
  /// as for an infeasible ILP (paper Section IV-A4, last paragraph).
  bool RequireParallel = false;
  std::string Label;

  /// Statements whose dimension-Depth loop this node prepares for
  /// explicit vector types, and the lane count. Copied into DimInfo when
  /// the node's constraints hold in the final schedule.
  std::vector<unsigned> VectorStmts;
  unsigned VectorWidth = 0;

  InfluenceNode *Parent = nullptr;
  std::vector<std::unique_ptr<InfluenceNode>> Children;

  InfluenceNode *addChild(std::string ChildLabel);

  /// The next sibling to the right, or null.
  InfluenceNode *rightSibling() const;

  bool isLeaf() const { return Children.empty(); }
};

/// The tree; the root is a dummy above depth 0 whose children are the
/// alternative top-level scenarios.
class InfluenceTree {
public:
  InfluenceTree() { Root.Label = "root"; }

  InfluenceNode &root() { return Root; }
  const InfluenceNode &root() const { return Root; }

  bool empty() const { return Root.Children.empty(); }

  /// First (highest priority) top-level scenario, or null.
  InfluenceNode *firstScenario() {
    return Root.Children.empty() ? nullptr : Root.Children.front().get();
  }

  /// A human-readable rendering only: it omits objectives and
  /// RequireParallel, so trees that schedule differently can print the
  /// same. Key on service::fingerprintInfluenceTree instead.
  std::string str(const Kernel &K) const;

private:
  InfluenceNode Root;
};

/// Convenience factory for the common single-coefficient constraints.
InfluenceConstraint makeCoeffEquals(unsigned Stmt, unsigned Dim,
                                    unsigned CoeffIdx, Int Value);
InfluenceConstraint makeCoeffsEqual(unsigned StmtA, unsigned DimA,
                                    unsigned CoeffA, unsigned StmtB,
                                    unsigned DimB, unsigned CoeffB);

} // namespace pinj

#endif // POLYINJECT_SCHED_INFLUENCETREE_H
