//===- exec/Interpreter.h - Reference and scheduled execution ---*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sequential executor over real buffers. Running a kernel in its
/// original statement/loop order and in the order dictated by a schedule
/// (every statement instance ordered by its multidimensional logical
/// date) and comparing the outputs validates end to end that a schedule
/// preserves the program semantics.
///
/// The kernel is compiled once: every access becomes a flat offset
/// base + sum(coef * iter), bounds-checked once over its statement's
/// iteration box. A schedule's dates are packed into one shifted,
/// mixed-radix 128-bit key, affine in each statement's iterators. The
/// executor runs one order: it walks each statement's loops in date
/// order, steps same-shaped fused statements in lockstep, and merges the
/// walks by (key, statement), which is the (date, statement, iterators)
/// order with no keys in memory, no sort and no instance decode. A walk
/// of one statement runs its innermost loop a row at a time: one op-kind
/// dispatch per row and one offset move per access and point; the merge
/// runs the longest stretch of such a row whose keys stay below the next
/// walk's. A schedule whose order is the enumeration order (statement
/// major, then row-major iterators) runs as the original program, and
/// ScheduleValidator accepts it without running it.
///
/// Every schedule the backend generates walks: its rows are constants or
/// single iterators with coefficient 1, so each loop's key coefficient
/// dominates the key span of the loops inside it. Planning raises
/// RecoverableError (exec.interpret) for a schedule it cannot walk (a
/// skewed row, or dates wider than 128 bits), for a schedule that does
/// not match the kernel and for a kernel of 2^32 or more instances, and
/// Overflow for a date outside 64 bits. The sorted date order that runs
/// any schedule, and the date-sorting interpreter these replace, are
/// test oracles (exec/DateSorter.h, exec/Reference.h).
///
/// ScheduleValidator fills the inputs once, into the original-order
/// run. A transformed run owns only the tensors some statement writes,
/// refills them from the generator states recorded for them, and reads
/// the read-only tensors from the reference run in place: no statement
/// writes them, so they still hold the inputs.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_EXEC_INTERPRETER_H
#define POLYINJECT_EXEC_INTERPRETER_H

#include "ir/Kernel.h"
#include "sched/Schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

namespace pinj {

/// One buffer per kernel tensor, in declaration order.
struct ExecBuffers {
  std::vector<std::vector<double>> Tensors;
};

/// Allocates buffers for \p K and fills them with a deterministic
/// pseudo-random pattern derived from \p Seed.
ExecBuffers makeInputs(const Kernel &K, unsigned Seed);

/// Compares two tensors elementwise with relative/absolute tolerance:
/// the one tolerance rule of every semantic check.
bool tensorsAlmostEqual(const std::vector<double> &A,
                        const std::vector<double> &B, double Tolerance);

/// The value a statement of kind \p Kind computes from its read operands
/// \p R (numOperands(Kind) of them): the one definition of the op
/// semantics. Inline, so a caller with a constant kind compiles to that
/// kind's operation alone.
inline double evaluateOp(OpKind Kind, const double *R) {
  switch (Kind) {
  case OpKind::Assign:
    return R[0];
  case OpKind::Add:
    return R[0] + R[1];
  case OpKind::Sub:
    return R[0] - R[1];
  case OpKind::Mul:
    return R[0] * R[1];
  case OpKind::Div:
    return R[0] / R[1];
  case OpKind::Max:
    return std::max(R[0], R[1]);
  case OpKind::Min:
    return std::min(R[0], R[1]);
  case OpKind::Relu:
    return std::max(R[0], 0.0);
  case OpKind::Exp:
    return std::exp(R[0]);
  case OpKind::Rsqrt:
    return 1.0 / std::sqrt(std::abs(R[0]) + 1.0);
  case OpKind::Neg:
    return -R[0];
  case OpKind::Fma:
    return R[0] + R[1] * R[2];
  case OpKind::MulSub:
    return (R[0] - R[1]) * R[2];
  }
  fatalError("unknown op kind");
}

/// A kernel lowered for execution. Each access is a flat element offset
/// affine in its statement's iterators; construction checks every
/// access once over its statement's iteration box (an affine index takes
/// its extremes at the box corners) and raises RecoverableError
/// (exec.interpret) if one leaves its tensor anywhere in the box, or if a
/// statement's operand count does not match its op kind.
/// Statement instances are numbered in enumeration order: statement
/// major, then row-major iterators.
class CompiledKernel {
public:
  explicit CompiledKernel(const Kernel &K);

  const Kernel &kernel() const { return *K; }
  /// Total number of statement instances.
  std::uint64_t numInstances() const { return Begin.back(); }
  /// Number of the first instance of \p Stmt.
  std::uint64_t firstInstance(unsigned Stmt) const { return Begin[Stmt]; }
  /// The largest iterator count of any statement.
  unsigned maxIters() const { return MaxIters; }

  /// Number of accesses of \p Stmt: its write, then its reads.
  unsigned numAccesses(unsigned Stmt) const {
    return Stmts[Stmt].NumReads + 1;
  }
  /// The flat element offset of access \p A of \p Stmt at iteration
  /// \p Iters.
  std::uint64_t offset(unsigned Stmt, unsigned A, const Int *Iters) const;
  /// How far access \p A of \p Stmt moves when iterator \p Iter grows by
  /// one (wrapping: a move that stays in bounds is exact).
  std::uint64_t stride(unsigned Stmt, unsigned A, unsigned Iter) const;

  /// Executes \p Stmt with its accesses at the flat offsets \p Offsets
  /// (write first) on \p Data, the buffers' tensor base pointers (see
  /// tensorData).
  void executeAt(unsigned Stmt, const std::uint64_t *Offsets,
                 double *const *Data) const;
  /// Executes \p N >= 1 consecutive points of \p Stmt along one loop on
  /// \p Data: its accesses start at \p Offsets (write first) and move by
  /// \p Step (wrapping) from one point to the next, and \p Offsets is
  /// left at the last point. The op kind is dispatched once per row.
  void executeRow(unsigned Stmt, std::uint64_t *Offsets,
                  const std::uint64_t *Step, std::uint64_t N,
                  double *const *Data) const;

  /// Executes every instance on \p Data, the tensor base pointers, in
  /// enumeration order.
  void run(double *const *Data) const;
  void run(ExecBuffers &Buffers) const { run(tensorData(Buffers).data()); }

  /// The tensor base pointers of \p Buffers, in declaration order.
  static std::vector<double *> tensorData(ExecBuffers &Buffers);

private:
  struct FlatAccess {
    unsigned Tensor;
    std::uint64_t Base; ///< Offset at the zero iteration.
    unsigned FirstCoef; ///< Index of the first of numIters coefficients.
  };
  struct FlatStmt {
    OpKind Kind;
    unsigned NumIters;
    unsigned NumReads;
    unsigned FirstAccess; ///< Write first, then the reads.
  };

  const Kernel *K;
  std::vector<FlatStmt> Stmts;
  std::vector<FlatAccess> Accesses;
  /// Offset coefficients, wrapping: an in-bounds offset is exact.
  std::vector<std::uint64_t> Coefs;
  std::vector<std::uint64_t> Begin; ///< Prefix instance counts, size+1.
  unsigned MaxIters = 0;
};

/// How DateOrderExecutor orders a schedule's instances.
enum class DateOrder {
  Enumeration, ///< The date order is the enumeration order.
  Walk,        ///< Each statement's loops walked in date order, merged.
};

/// The exec.interpret message with which DateOrderExecutor::plan refuses
/// a schedule that passed every other check but cannot be walked.
inline constexpr const char *UnwalkableSchedule = "schedule cannot be walked";

/// Executes a compiled kernel under schedules, ordering every statement
/// instance by logical date (ties broken by statement, then iterators);
/// its plan scratch is reused across schedules.
class DateOrderExecutor {
public:
  DateOrderExecutor();
  ~DateOrderExecutor();

  /// Plans the date order of \p S over \p Code, which must outlive the
  /// plan's runs. Raises RecoverableError: exec.interpret when \p S does
  /// not match the kernel, the kernel has 2^32 or more instances or the
  /// schedule cannot be walked, Overflow when a date leaves 64 bits.
  DateOrder plan(const CompiledKernel &Code, const Schedule &S);

  /// Executes every instance on \p Data, the tensor base pointers, in
  /// the planned order.
  void run(double *const *Data);
  void run(ExecBuffers &Buffers) {
    run(CompiledKernel::tensorData(Buffers).data());
  }

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Checks schedules of one kernel against one original-order run: the
/// reference buffers are computed by the first check whose schedule is
/// not in the enumeration order and shared by the later ones, and the
/// plan scratch is reused. A transformed run owns only the tensors some
/// statement writes, refilled with makeInputs' values, and reads every
/// other tensor from the reference, which no statement writes; only the
/// written tensors are compared.
class ScheduleValidator {
public:
  explicit ScheduleValidator(const Kernel &K, unsigned Seed = 1);
  ~ScheduleValidator();

  /// True if executing the kernel under \p S produces the same buffers as
  /// the original order; true without running when \p S orders the
  /// instances as the original program does. Hits the exec.interpret
  /// fail-point; raises what CompiledKernel and DateOrderExecutor::plan
  /// raise.
  bool check(const Schedule &S);

  /// The original-order run, or null until a check has made it. Its
  /// read-only tensors hold makeInputs' values.
  const ExecBuffers *reference() const;

private:
  struct State;
  const Kernel &K;
  unsigned Seed;
  std::unique_ptr<State> St;
};

/// Convenience: ScheduleValidator(K, Seed).check(S), true if executing
/// \p K under \p S produces the same buffers as the original order for a
/// seeded random input. Raises RecoverableError (exec.interpret) for a
/// schedule the walk cannot order, such as a skewed one that
/// scheduleKernel can produce, and otherwise what ScheduleValidator::check
/// raises.
bool scheduleIsSemanticallyEqual(const Kernel &K, const Schedule &S,
                                 unsigned Seed = 1);

} // namespace pinj

#endif // POLYINJECT_EXEC_INTERPRETER_H
