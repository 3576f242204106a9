//===- obs/Stage.h - One scope per pipeline stage ---------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_STAGE_H
#define POLYINJECT_OBS_STAGE_H

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <chrono>
#include <exception>
#include <optional>

namespace pinj {
namespace obs {

/// One pipeline stage (isl, novec, infl, tvm, validate) as one RAII
/// scope: span \p SpanName, then at close the registry delta and the
/// `stage_end` journal record (nothing while an exception unwinds).
class Stage {
public:
  /// With \p Mark, \p Delta receives the registry delta since \p Mark
  /// and \p Mark advances, so stages chained on one mark partition the
  /// counters; without, stage_end reports zero solver effort.
  Stage(const char *Name, const char *SpanName,
        MetricsSnapshot *Mark = nullptr, MetricsSnapshot *Delta = nullptr)
      : Name(Name), Mark(Mark), Delta(Delta), Scope(std::in_place, SpanName) {}

  ~Stage() {
    Scope.reset();
    if (std::uncaught_exceptions() > Unwinding)
      return;
    if (Mark) {
      MetricsSnapshot Now = metrics().snapshot();
      *Delta = Now.since(*Mark);
      *Mark = std::move(Now);
    }
    if (!Journal::fastEnabled())
      return;
    static const MetricsSnapshot None;
    const MetricsSnapshot &Counters = Mark ? *Delta : None;
    JournalEvent("stage_end")
        .field("stage", Name)
        .field("dur_us", std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - T0)
                             .count())
        .field("ilp_nodes", Counters.counter("lp.ilp_nodes"))
        .field("ilp_solves", Counters.counter("lp.ilp_solves"))
        .field("pivots", Counters.counter("lp.simplex_pivots"))
        .field("outcome", Outcome);
  }

  /// The stage_end record's outcome ("ok" until set).
  void setOutcome(const char *Label) { Outcome = Label; }

private:
  const char *Name;
  const char *Outcome = "ok";
  MetricsSnapshot *Mark, *Delta;
  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  int Unwinding = std::uncaught_exceptions();
  std::optional<Span> Scope;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_STAGE_H
