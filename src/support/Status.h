//===- support/Status.h - Structured recoverable diagnostics ---*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure model of the pipeline. Reachable failures (overflow in
/// exact arithmetic, solver budgets, scheduling dead ends, injected
/// fail-points) are represented as a `Status` carried by a
/// `RecoverableError` exception; recovery boundaries (`scheduleKernel`,
/// each configuration in `runOperator`, the `polyinject-opt` driver)
/// catch it and degrade instead of aborting. `fatalError` remains only
/// for invariants unreachable from any parseable input (e.g. switches
/// over enum values the parser already validated).
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_STATUS_H
#define POLYINJECT_SUPPORT_STATUS_H

#include <exception>
#include <string>

namespace pinj {

/// Every way a pipeline stage can fail without taking the process down.
enum class StatusCode {
  Ok = 0,
  Overflow,       ///< 64/128-bit overflow in exact integer/rational math.
  BudgetExceeded, ///< A solver budget (pivots, nodes, deadline) ran out.
  DimensionLimit, ///< The scheduling construction exceeded MaxDims.
  Stuck,          ///< Every scheduling fallback was exhausted.
  SolverError,    ///< A solver produced an unusable result.
  InvalidInput,   ///< Input rejected by kernel verification.
  InjectedFault,  ///< A test fail-point fired (see support/FailPoint.h).
  Internal,       ///< A recoverable internal invariant violation.
};

/// A short stable name ("overflow", "budget_exceeded", ...).
const char *statusCodeName(StatusCode Code);

/// The outcome of an operation: a code plus the site that raised it (a
/// dotted component path such as "lp.simplex" or a fail-point name) and
/// an optional human-readable message.
class Status {
public:
  Status() = default; ///< Ok.
  Status(StatusCode Code, std::string Site, std::string Message = "")
      : Code(Code), TheSite(std::move(Site)),
        TheMessage(std::move(Message)) {}

  bool ok() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &site() const { return TheSite; }
  const std::string &message() const { return TheMessage; }

  /// "overflow at lp.simplex: <message>" (or "ok").
  std::string str() const;

private:
  StatusCode Code = StatusCode::Ok;
  std::string TheSite;
  std::string TheMessage;
};

/// The exception that unwinds from deep arithmetic/solver code to the
/// nearest recovery boundary. Always carries a non-ok Status.
class RecoverableError : public std::exception {
public:
  explicit RecoverableError(Status S);

  const Status &status() const { return S; }
  const char *what() const noexcept override { return What.c_str(); }

private:
  Status S;
  std::string What;
};

/// Raises a RecoverableError; the counterpart of fatalError for failures
/// a caller is expected to survive.
[[noreturn]] void raiseError(StatusCode Code, const char *Site,
                             std::string Message = "");

} // namespace pinj

#endif // POLYINJECT_SUPPORT_STATUS_H
