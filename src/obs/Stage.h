//===- obs/Stage.h - One scope per pipeline stage ---------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scope every pipeline stage runs in: its span, its clock, a tally
/// of the work it does on this thread (obs/Metrics.h), and its
/// `stage_end` journal record. The tally holds the stage's own counts
/// only, so a stage's metrics do not depend on what else the process
/// does meanwhile; at close it folds into the enclosing (operator) tally.
///
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
/// scope: span \p SpanName and the stage's tally, then at close the
/// `stage_end` journal record (nothing while an exception unwinds).
class Stage {
public:
  Stage(const char *Name, const char *SpanName)
      : Name(Name), Scope(std::in_place, SpanName) {}

  ~Stage() {
    Scope.reset();
    if (std::uncaught_exceptions() > Unwinding || !Journal::fastEnabled())
      return;
    static Counter &Nodes = metrics().counter("lp.ilp_nodes");
    static Counter &Solves = metrics().counter("lp.ilp_solves");
    static Counter &Pivots = metrics().counter("lp.simplex_pivots");
    const Tally &Own = Work.tally();
    JournalEvent("stage_end")
        .field("stage", Name)
        .field("dur_us", std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - T0)
                             .count())
        .field("ilp_nodes", Own.count(Nodes))
        .field("ilp_solves", Own.count(Solves))
        .field("pivots", Own.count(Pivots))
        .field("outcome", Outcome);
  }

  /// The stage_end record's outcome ("ok" until set).
  void setOutcome(const char *Label) { Outcome = Label; }

  /// The stage's own work so far: nonzero counters and nonempty
  /// histograms.
  MetricsSnapshot counts() const { return Work.tally().nonzero(); }

private:
  const char *Name;
  const char *Outcome = "ok";
  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  int Unwinding = std::uncaught_exceptions();
  TallyScope Work;
  std::optional<Span> Scope;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_STAGE_H
