//===- lp/IlpMemo.cpp -----------------------------------------------------===//

#include "lp/IlpMemo.h"

#include "lp/BranchAndBound.h"
#include "support/FailPoint.h"

using namespace pinj;

namespace {

thread_local IlpMemo *CurrentMemo = nullptr;

/// FNV-1a over 64-bit words.
void mix(std::uint64_t &H, std::uint64_t Word) {
  H = (H ^ Word) * 0x100000001b3ull;
}

void mixForm(std::uint64_t &H, const SparseForm &F) {
  mix(H, static_cast<std::uint64_t>(F.Constant));
  mix(H, F.Terms.size());
  for (const auto &[Var, Coeff] : F.Terms) {
    mix(H, Var);
    mix(H, static_cast<std::uint64_t>(Coeff));
  }
}

} // namespace

IlpBuilder IlpMemo::canonical(const IlpBuilder &B) {
  IlpBuilder Key;
  Key.Integrality = B.Integrality;
  Key.Rows.reserve(B.Rows.size());
  for (const IlpBuilder::Row &R : B.Rows)
    Key.Rows.push_back({R.Form.canonical(), R.Kind});
  Key.Objectives.reserve(B.Objectives.size());
  // A level's constant does not reach the problem (LexObjective keeps
  // only the coefficients).
  for (const SparseForm &O : B.Objectives) {
    Key.Objectives.push_back(O.canonical());
    Key.Objectives.back().Constant = 0;
  }
  return Key;
}

bool IlpMemo::sameProblem(const IlpBuilder &A, const IlpBuilder &B) {
  return A.Integrality == B.Integrality && A.Rows == B.Rows &&
         A.Objectives == B.Objectives;
}

std::size_t IlpMemo::KeyHash::operator()(const IlpBuilder &Key) const {
  std::uint64_t H = 0xcbf29ce484222325ull;
  mix(H, Key.Integrality.size());
  for (bool I : Key.Integrality)
    mix(H, I);
  for (const IlpBuilder::Row &R : Key.Rows) {
    mix(H, R.Kind);
    mixForm(H, R.Form);
  }
  for (const SparseForm &O : Key.Objectives)
    mixForm(H, O);
  return H;
}

IlpResult IlpMemo::solve(const IlpBuilder &B) {
  static obs::Counter &Hits = obs::metrics().counter("lp.ilp_memo_hits");
  IlpBuilder Key = canonical(B);
  auto It = Entries.find(Key);
  // An armed lp fail point must fire where a solve fires it, after the
  // counts the solve records first: solve for real.
  const bool Faults =
      failpoint::isActive("lp.ilp") || failpoint::isActive("lp.simplex");
  if (It != Entries.end() && !Faults && budget::chargeWork(It->second.Work)) {
    const Entry &E = It->second;
    E.Counts.replay();
    addThreadSimplexPivots(E.Pivots);
    journalSolveEnd(E.Result, Key.Objectives.size(), E.Pivots);
    Hits.inc();
    return E.Result;
  }

  const SolverWork Before = budget::threadChargeable();
  const std::uint64_t PivotsBefore = threadSimplexPivots();
  Entry E;
  {
    obs::TallyScope Counts;
    auto [Problem, Levels] = B.materialize();
    E.Result = solveLexMin(std::move(Problem), Levels);
    E.Counts = obs::TallyRecord(Counts.tally());
  }
  // A solve that ran out of budget proves nothing; one that did not ran
  // to the end and tripped no scope.
  if (It != Entries.end() || E.Result.Status == IlpResult::BudgetExceeded)
    return E.Result;
  const SolverWork After = budget::threadChargeable();
  E.Work = {After.Pivots - Before.Pivots, After.Nodes - Before.Nodes};
  E.Pivots = threadSimplexPivots() - PivotsBefore;
  return Entries.emplace(std::move(Key), std::move(E)).first->second.Result;
}

std::vector<IlpBuilder> IlpMemo::problems() const {
  std::vector<IlpBuilder> Out;
  Out.reserve(Entries.size());
  for (const auto &[Key, E] : Entries)
    Out.push_back(Key);
  return Out;
}

IlpMemoScope::IlpMemoScope() {
  if (CurrentMemo)
    return;
  Own = std::make_unique<IlpMemo>();
  CurrentMemo = Own.get();
}

IlpMemoScope::~IlpMemoScope() {
  if (Own)
    CurrentMemo = nullptr;
}

IlpMemo &IlpMemoScope::memo() const { return *CurrentMemo; }

IlpMemo *pinj::currentIlpMemo() { return CurrentMemo; }
