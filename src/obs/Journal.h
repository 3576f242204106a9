//===- obs/Journal.h - Request-scoped structured event journal --*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured event journal: an append-only stream of small typed
/// records ("solve finished", "dimension accepted", "cache hit",
/// "degradation taken", "surrogate ranked the space") that explains
/// *why* a compilation came out the way it did, where the tracer only
/// shows *where time went* and the metrics registry only shows *how
/// much in total*.
///
/// Every record carries a stable request id. The id is generated once
/// per operator compilation — at `runOperator` entry, or earlier by the
/// batch compiler at submission — and threaded through scheduler,
/// influence-tree and LP layers via a thread-local request scope, so
/// deep solver code can journal without widening any call signature.
/// The same id lands in the report sidecar and the Chrome trace, making
/// the three artifacts joinable offline (tools/polyinject-stats).
///
/// Cost model: like the tracer, a disabled journal costs one relaxed
/// atomic load per would-be event (`Journal::fastEnabled`). Enabled, an
/// event is one mutex-guarded ring-buffer push plus, when a file sink is
/// attached, one buffered JSONL line write. Events are kept in a bounded
/// ring (oldest dropped, drop count kept) so an always-on journal never
/// grows without bound in a long-lived service.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_JOURNAL_H
#define POLYINJECT_OBS_JOURNAL_H

#include "obs/Json.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace pinj {
namespace obs {

/// One journal record. Serialized as a single JSONL object:
/// {"ts_us":..,"request_id":"..","type":"..",<fields>}.
struct JournalRecord {
  double TsUs = 0;       ///< Relative to the journal epoch.
  std::string RequestId; ///< Empty only for request-less records.
  std::string Type;      ///< Stable event type name ("solve_end", ...).
  std::vector<Field> Fields;

  std::string jsonl() const;
  /// Appends the JSONL form to \p Out without allocating a temporary
  /// (the emit hot path serializes into one reusable buffer).
  void renderTo(std::string &Out) const;
};

/// The process-wide journal; all state behind `Journal::get()`, guarded
/// by an internal mutex (the batch compiler journals from concurrent
/// workers).
class Journal {
public:
  static constexpr std::size_t DefaultRingCapacity = 65536;

  static Journal &get();

  /// Turns collection on with the given in-memory ring capacity.
  void enable(std::size_t RingCapacity = DefaultRingCapacity);
  /// Turns collection off (ring contents kept until reset()).
  void disable();
  bool enabled() const {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// The single branch the disabled fast path takes.
  static bool fastEnabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Attaches a JSONL file sink: every record emitted from now on is
  /// appended to \p Path (truncated first). \returns false and sets
  /// \p Error when the file cannot be opened. Implies nothing about
  /// enable(); callers typically do both.
  bool openFile(const std::string &Path, std::string &Error);
  /// Flushes and detaches the file sink (no-op when none is attached).
  void closeFile();
  /// Flushes the file sink if one is attached (degradation paths call
  /// this so truncated runs still leave a readable journal).
  void flushFile();

  /// Drops ring contents and the drop counter and restarts the epoch.
  void reset();

  /// Stamps \p R with the epoch-relative timestamp and appends it to
  /// the ring (and file sink, when attached). Thread-safe.
  void emit(JournalRecord R);

  /// A copy of the buffered records, oldest first.
  std::vector<JournalRecord> snapshot() const;
  /// Records evicted from the ring since the last reset().
  std::uint64_t dropped() const;
  std::size_t size() const;

private:
  Journal();

  double nowUs() const;

  static inline std::atomic<bool> EnabledFlag{false};
  mutable std::mutex Mu;
  std::size_t Capacity = DefaultRingCapacity;
  std::deque<JournalRecord> Ring;
  std::uint64_t Dropped = 0;
  std::chrono::steady_clock::time_point Epoch;
  std::ofstream File;
  bool FileOpen = false;
  std::string LineBuf; ///< Reused per emit; guarded by Mu.
};

inline Journal &journal() { return Journal::get(); }

//===----------------------------------------------------------------------===//
// Request identity
//===----------------------------------------------------------------------===//

/// Allocates a fresh process-unique request id: a fixed per-process
/// token plus a sequence number, so ids from different processes of a
/// fleet do not collide when journals are aggregated offline.
std::string nextRequestId();

/// The request id installed on this thread, or "" outside any request.
const std::string &currentRequestId();

/// RAII: installs \p Id as this thread's current request id, restoring
/// the previous id (usually "") on destruction. The pipeline opens one
/// per operator; the batch compiler opens one per job around the worker
/// call, so every layer below sees the same id.
class RequestScope {
public:
  explicit RequestScope(std::string Id);
  ~RequestScope();
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

  const std::string &id() const;

private:
  std::string Previous;
};

//===----------------------------------------------------------------------===//
// Event builder
//===----------------------------------------------------------------------===//

/// Fluent builder for one journal record. Construction captures the
/// current request id; destruction emits. When the journal is disabled
/// the constructor is a single branch and field() calls are no-ops:
///
///   obs::JournalEvent("solve_end")
///       .field("nodes", Nodes).field("status", "optimal");
class JournalEvent {
public:
  explicit JournalEvent(const char *Type) {
    if (!Journal::fastEnabled())
      return;
    Active = true;
    R.Type = Type;
    R.RequestId = currentRequestId();
    R.Fields.reserve(6);
  }
  ~JournalEvent() {
    if (Active)
      Journal::get().emit(std::move(R));
  }
  JournalEvent(const JournalEvent &) = delete;
  JournalEvent &operator=(const JournalEvent &) = delete;

  bool active() const { return Active; }

  template <class T> JournalEvent &field(const char *Key, const T &Value) {
    if (Active)
      R.Fields.push_back(json::field(Key, Value));
    return *this;
  }

private:
  bool Active = false;
  JournalRecord R;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_JOURNAL_H
