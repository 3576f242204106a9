//===- obs/Report.h - Per-operator metrics sidecar --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects one record per operator run through the pipeline and emits a
/// JSON metrics sidecar — the telemetry stream for regression tracking
/// and for learned-autotuning work that needs per-schedule measurements.
/// The sink stores its own plain records (filled by pipeline code) so
/// the observability layer stays below every other library.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_REPORT_H
#define POLYINJECT_OBS_REPORT_H

#include "obs/Metrics.h"

#include <vector>

namespace pinj {
namespace obs {

/// Measurements of one configuration of one operator.
struct ConfigRecord {
  std::string Name; ///< "isl", "novec", "infl", "tvm".
  double TimeUs = 0;
  double Transactions = 0;
  double TransactionBytes = 0;
  double UsefulBytes = 0;
  MetricsSnapshot Metrics; ///< This configuration's own nonzero counts.
};

/// One recorded degradation: a configuration that failed and what the
/// pipeline substituted (see pipeline/Pipeline.h for the ladder).
struct DegradationRecord {
  std::string Config; ///< "isl", "novec", "infl", "tvm", "validate", ...
  std::string Site;   ///< Originating site ("lp.simplex", a fail-point).
  std::string Code;   ///< Stable status code name ("budget_exceeded").
  std::string Detail; ///< Human-readable explanation.
};

/// One operator's sidecar entry.
struct OperatorRecord {
  std::string Name;
  /// Stable request id of the compilation (obs/Journal.h); the same id
  /// appears on every journal event and Chrome trace span of this
  /// operator, making sidecar, journal, and trace joinable offline.
  std::string RequestId;
  bool Influenced = false;
  bool VecEligible = false;
  bool Validated = false;
  /// Scheduling was skipped because the compilation cache held this
  /// operator (service/Cache.h).
  bool CacheHit = false;
  /// An autotuning hook chose this operator's pipeline options; the
  /// Tune* fields record the winning candidate (tune/Autotuner.h).
  bool Tuned = false;
  std::string TuneEncoding;  ///< Canonical candidate, or "baseline".
  double TunePredictedUs = 0;
  bool TuneFromDb = false;   ///< Replayed from the tuning database.
  std::string TuneStrategy;  ///< "exhaustive", "greedy", "anneal".
  std::vector<ConfigRecord> Configs;
  std::vector<DegradationRecord> Degradations;
  MetricsSnapshot Metrics; ///< The operator's own nonzero counts.
};

/// Serializes one operator record as a JSON object — the ONLY emitter
/// of the per-operator sidecar fields (name/request_id/cache_hit/tuned/
/// tuning/configs/degradations/metrics). ReportSink::json() and any
/// single-operator output path go through here, so the schema cannot
/// drift between writers.
std::string renderOperatorRecord(const OperatorRecord &Op);

/// Accumulates operator records and serializes them as one JSON
/// document: {"operators":[...]}.
class ReportSink {
public:
  void add(OperatorRecord Record) {
    Operators.push_back(std::move(Record));
  }

  const std::vector<OperatorRecord> &operators() const { return Operators; }
  bool empty() const { return Operators.empty(); }
  void clear() { Operators.clear(); }

  std::string json() const;

  /// Writes json() to \p Path. \returns false and sets \p Error on I/O
  /// failure.
  bool writeJson(const std::string &Path, std::string &Error) const;

private:
  std::vector<OperatorRecord> Operators;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_REPORT_H
