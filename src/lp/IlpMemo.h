//===- lp/IlpMemo.h - Solutions of distinct lexmin problems -----*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memo of IlpBuilder::solve results, so that a region of work that
/// builds the same dimension ILP many times (a tuning request: the
/// search scores many candidates of one operator, then compiles the
/// winner) solves each distinct one once.
///
/// The key is the materialized problem: the variable count and
/// integrality, each row's kind, constant and nonzero coefficients, and
/// the objective levels, kept in canonical sparse form. Its hash only
/// picks the bucket; a hit compares the whole key.
///
/// A hit replays its miss exactly. It returns the stored IlpResult,
/// records the lp.* counts and samples the miss recorded (into the
/// registry and the current tally), adds its pivots to
/// threadSimplexPivots() and re-emits its solve_end journal record; one
/// lp.ilp_memo_hits counts it. It also charges the budget the miss's
/// chargeable work (budget::threadChargeable): nodes always, pivots only
/// under an active scope, as a solve does. A hit is served only when
/// every enclosing budget scope admits that work (budget::chargeWork)
/// and neither the lp.ilp nor the lp.simplex fail point is active;
/// otherwise the problem is solved for real and trips, or raises, where
/// it always did. Only solves that did not run out of budget are stored.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_ILPMEMO_H
#define POLYINJECT_LP_ILPMEMO_H

#include "lp/Budget.h"
#include "lp/Builder.h"
#include "obs/Metrics.h"

#include <memory>
#include <unordered_map>

namespace pinj {

class IlpMemo {
public:
  /// Solves \p B, from a stored solve of the same problem when one may
  /// be replayed (see the file comment).
  IlpResult solve(const IlpBuilder &B);

  /// The stored problems, in canonical form, in no particular order.
  std::vector<IlpBuilder> problems() const;

  std::size_t size() const { return Entries.size(); }

private:
  /// What a hit replays.
  struct Entry {
    IlpResult Result;
    obs::TallyRecord Counts;
    SolverWork Work;            ///< Chargeable pivots and nodes.
    std::uint64_t Pivots = 0;   ///< Every simplex pivot, for solve_end.
  };
  struct KeyHash {
    std::size_t operator()(const IlpBuilder &Key) const;
  };

  /// \p B with every row and objective in canonical form.
  static IlpBuilder canonical(const IlpBuilder &B);
  /// Equal materialize() results, term for term.
  static bool sameProblem(const IlpBuilder &A, const IlpBuilder &B);
  struct KeyEqual {
    bool operator()(const IlpBuilder &A, const IlpBuilder &B) const {
      return sameProblem(A, B);
    }
  };

  std::unordered_map<IlpBuilder, Entry, KeyHash, KeyEqual> Entries;
};

/// RAII: installs a fresh IlpMemo on the current thread for the scope's
/// lifetime. A scope opened inside another one on the same thread joins
/// the enclosing memo instead (installs nothing), so a region's inner
/// scopes share the outermost memo.
class IlpMemoScope {
public:
  IlpMemoScope();
  ~IlpMemoScope();
  IlpMemoScope(const IlpMemoScope &) = delete;
  IlpMemoScope &operator=(const IlpMemoScope &) = delete;

  /// The memo in effect inside this scope.
  IlpMemo &memo() const;

private:
  std::unique_ptr<IlpMemo> Own;
};

/// The memo the outermost open IlpMemoScope on this thread installed;
/// null outside every scope.
IlpMemo *currentIlpMemo();

} // namespace pinj

#endif // POLYINJECT_LP_ILPMEMO_H
