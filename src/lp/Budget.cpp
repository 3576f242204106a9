//===- lp/Budget.cpp ------------------------------------------------------===//

#include "lp/Budget.h"

#include "obs/Metrics.h"

using namespace pinj;
using namespace pinj::budget;

namespace {
using Clock = std::chrono::steady_clock;
} // namespace

struct pinj::budget::BudgetState {
  BudgetState *Parent = nullptr;
  std::uint64_t PivotsLeft = 0; // meaningful only when HasPivots
  std::uint64_t NodesLeft = 0;  // meaningful only when HasNodes
  Clock::time_point Deadline;   // meaningful only when HasDeadline
  bool HasPivots = false;
  bool HasNodes = false;
  bool HasDeadline = false;
  bool Tripped = false;
  bool DeadlineHit = false;

  // Marks the scope exhausted; the counter fires once per scope so a
  // single budget trip is one lp.budget_exceeded increment no matter how
  // many subsequent charges bounce off it.
  bool trip() {
    if (!Tripped) {
      Tripped = true;
      obs::metrics().counter("lp.budget_exceeded").inc();
    }
    return false;
  }
};

namespace {
thread_local BudgetState *Top = nullptr;
thread_local SolverWork Charged;
thread_local SolverWork Chargeable;
} // namespace

BudgetScope::BudgetScope(const SolverBudget &B) {
  if (B.unlimited())
    return;
  S = new BudgetState();
  S->Parent = Top;
  if (B.MaxPivots > 0) {
    S->HasPivots = true;
    S->PivotsLeft = B.MaxPivots;
  }
  if (B.MaxIlpNodes > 0) {
    S->HasNodes = true;
    S->NodesLeft = B.MaxIlpNodes;
  }
  if (B.WallMs > 0) {
    S->HasDeadline = true;
    S->Deadline = Clock::now() + std::chrono::microseconds(
                                     static_cast<long long>(B.WallMs * 1000));
  }
  Top = S;
}

BudgetScope::~BudgetScope() {
  if (!S)
    return;
  Top = S->Parent;
  delete S;
}

bool BudgetScope::tripped() const { return S && S->Tripped; }

bool pinj::budget::active() { return Top != nullptr; }

SolverWork pinj::budget::threadCharges() { return Charged; }

SolverWork pinj::budget::threadChargeable() { return Chargeable; }

void pinj::budget::skipPivot() { ++Chargeable.Pivots; }

bool pinj::budget::chargePivot() {
  ++Charged.Pivots;
  ++Chargeable.Pivots;
  bool Ok = true;
  for (BudgetState *S = Top; S; S = S->Parent) {
    if (S->Tripped)
      Ok = false;
    else if (S->HasPivots && S->PivotsLeft-- == 0)
      Ok = S->trip();
  }
  return Ok;
}

bool pinj::budget::chargeNode() {
  ++Charged.Nodes;
  ++Chargeable.Nodes;
  bool Ok = true;
  for (BudgetState *S = Top; S; S = S->Parent) {
    if (S->Tripped)
      Ok = false;
    else if (S->HasNodes && S->NodesLeft-- == 0)
      Ok = S->trip();
  }
  return Ok;
}

bool pinj::budget::chargeWork(const SolverWork &W) {
  for (const BudgetState *S = Top; S; S = S->Parent)
    if (S->Tripped || S->HasDeadline ||
        (S->HasPivots && S->PivotsLeft < W.Pivots) ||
        (S->HasNodes && S->NodesLeft < W.Nodes))
      return false;
  Charged.Nodes += W.Nodes;
  Chargeable.Nodes += W.Nodes;
  Chargeable.Pivots += W.Pivots;
  if (!Top)
    return true;
  Charged.Pivots += W.Pivots;
  for (BudgetState *S = Top; S; S = S->Parent) {
    if (S->HasPivots)
      S->PivotsLeft -= W.Pivots;
    if (S->HasNodes)
      S->NodesLeft -= W.Nodes;
  }
  return true;
}

bool pinj::budget::deadlineExpired() {
  if (!Top)
    return false;
  bool Expired = false;
  Clock::time_point Now = Clock::now();
  for (BudgetState *S = Top; S; S = S->Parent) {
    if (S->DeadlineHit)
      Expired = true;
    else if (S->HasDeadline && Now >= S->Deadline) {
      S->DeadlineHit = true;
      S->trip();
      Expired = true;
    }
  }
  return Expired;
}

bool pinj::budget::anyTripped() {
  for (BudgetState *S = Top; S; S = S->Parent)
    if (S->Tripped)
      return true;
  return false;
}
