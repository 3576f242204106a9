//===- obs/Trace.h - Scoped-span tracer -------------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead scoped-span tracer for the scheduling pipeline. RAII
/// `Span` objects record nesting, wall-clock timing and key/value
/// attributes; the process-wide `Tracer` serializes them to Chrome
/// trace-event JSON (loadable in chrome://tracing or Perfetto) and to an
/// indented human-readable stderr form.
///
/// Tracing is disabled by default and costs exactly one predictable
/// branch per span in that state: `Span`'s constructor tests a static
/// flag and does nothing else — no clock read, no allocation — so the
/// hot ILP path is unaffected. `POLYINJECT_TRACE=1` in the environment
/// enables the human-readable form at startup (the historical scheduler
/// trace alias); programs enable JSON buffering explicitly.
///
/// The tracer is thread-safe: the batch compiler (service/) opens and
/// closes spans from worker threads concurrently. The event buffer is
/// guarded by a mutex, nesting depth is tracked per thread, and every
/// event records a small per-thread id that becomes the Chrome trace
/// "tid" field, so concurrent workers render as separate tracks.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_TRACE_H
#define POLYINJECT_OBS_TRACE_H

#include "obs/Json.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace pinj {
namespace obs {

/// One closed (or still open) span.
struct TraceEvent {
  std::string Name;
  std::string Category;
  double BeginUs = 0; ///< Relative to the tracer epoch.
  double DurUs = 0;
  unsigned Depth = 0; ///< Nesting depth at open time (per thread).
  unsigned Tid = 0;   ///< Small per-thread id (Chrome trace "tid").
  bool Closed = false;
  std::vector<Field> Args;
};

/// The process-wide trace collector; all state lives behind
/// `Tracer::get()`, guarded by an internal mutex.
class Tracer {
public:
  /// Output mode bits for enable().
  enum ModeBits : unsigned {
    Human = 1u, ///< Indented stderr line per closed span.
    Json = 2u,  ///< Buffer events for json()/writeJson().
  };

  static Tracer &get();

  /// Turns on the given output mode(s); modes accumulate.
  void enable(unsigned ModeMask);
  /// Turns all tracing off (buffered events are kept until reset()).
  void disable();
  bool enabled() const { return modes() != 0; }
  bool humanEnabled() const { return (modes() & Human) != 0; }
  bool jsonEnabled() const { return (modes() & Json) != 0; }

  /// Drops all buffered events and restarts the epoch clock.
  void reset();

  /// The buffered events, in open order (parents before children on
  /// each thread). Call only while no spans are being recorded
  /// concurrently (tests, end-of-run serialization).
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Chrome trace-event JSON of the buffered events:
  /// {"traceEvents":[{"ph":"X",...},...]}.
  std::string json() const;

  /// Writes json() to \p Path. \returns false and sets \p Error on I/O
  /// failure.
  bool writeJson(const std::string &Path, std::string &Error) const;

  /// Registers \p Path as the abnormal-path flush target: autoFlush()
  /// rewrites it with the current buffer. The pipeline calls autoFlush
  /// on every degradation, so a run that dies mid-compilation still
  /// leaves a loadable trace (closed spans only). Pass "" to clear.
  void setAutoFlushPath(std::string Path);
  /// Rewrites the auto-flush file, if one is configured; no-op (and
  /// cheap) otherwise.
  void autoFlush() const;

  /// The single branch the disabled fast path takes.
  static bool fastEnabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  // Span implementation interface (not for direct use).
  unsigned openSpan(const char *Name, const char *Category);
  void closeSpan(unsigned Index);
  void addSpanArg(unsigned Index, Field Arg);

private:
  Tracer();

  double nowUs() const;
  void printHuman(const TraceEvent &E) const;

  unsigned modes() const { return Modes.load(std::memory_order_relaxed); }

  static inline std::atomic<bool> EnabledFlag{false};
  mutable std::mutex Mu;
  std::atomic<unsigned> Modes{0};
  unsigned OpenCount = 0; ///< Spans open across all threads.
  std::chrono::steady_clock::time_point Epoch;
  std::vector<TraceEvent> Events;
  std::string AutoFlushPath; ///< Degradation-path flush target ("" off).
};

inline Tracer &tracer() { return Tracer::get(); }

/// A scoped span. Construct on the stack; destruction closes the span.
/// When tracing is disabled, construction is a single branch and arg()
/// calls are no-ops.
class Span {
public:
  explicit Span(const char *Name, const char *Category = "pinj") {
    if (!Tracer::fastEnabled())
      return;
    Index = Tracer::get().openSpan(Name, Category);
    Active = true;
  }
  ~Span() {
    if (Active)
      Tracer::get().closeSpan(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  template <class T> Span &arg(const char *Key, const T &Value) {
    if (Active)
      Tracer::get().addSpanArg(Index, json::field(Key, Value));
    return *this;
  }

  bool active() const { return Active; }

private:
  bool Active = false;
  unsigned Index = 0;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_TRACE_H
