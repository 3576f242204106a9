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
/// mixed-radix 128-bit key, affine in each statement's iterators. When
/// every statement's key coefficients dominate the key span of the loops
/// inside them (loop permutations, reversals, shifts and fusions do),
/// the executor walks each statement's loops in date order, steps
/// same-shaped fused statements in lockstep, and merges the walks by
/// (key, statement): the (date, statement, iterators) order with no keys
/// in memory, no sort and no instance decode. A schedule whose order is
/// the enumeration order (statement major, then row-major iterators)
/// runs as the original program, and ScheduleValidator accepts it
/// without running it. Other schedules (skewed rows, or dates wider than
/// 128 bits) fall back to 64-bit date keys ordered by a stable
/// counting/radix sort over the enumeration order. The date-sorting
/// interpreter these replace is kept as a test oracle
/// (exec/Reference.h).
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_EXEC_INTERPRETER_H
#define POLYINJECT_EXEC_INTERPRETER_H

#include "ir/Kernel.h"
#include "sched/Schedule.h"

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

/// The value a statement of kind \p Kind computes from its read operands
/// \p Reads (numOperands(Kind) of them): the one definition of the op
/// semantics.
double evaluateOp(OpKind Kind, const double *Reads);

/// A kernel lowered for execution. Each access is a flat element offset
/// affine in its statement's iterators; construction checks every
/// access once over its statement's iteration box (an affine index takes
/// its extremes at the box corners) and raises RecoverableError
/// (exec.interpret) if one leaves its tensor anywhere in the box.
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
  /// Executes iteration \p Iters of statement \p Stmt on \p Data.
  void execute(unsigned Stmt, const Int *Iters, double *const *Data) const;

  /// Executes every instance on \p Buffers: in the order of the instance
  /// numbers \p Order when given, else in enumeration order.
  void run(const std::uint32_t *Order, ExecBuffers &Buffers) const;

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

/// Executes \p K in the original program order.
void runOriginal(const Kernel &K, ExecBuffers &Buffers);

/// How DateOrderExecutor orders a schedule's instances.
enum class DateOrder {
  Enumeration, ///< The date order is the enumeration order.
  Walk,        ///< Each statement's loops walked in date order, merged.
  Sorted,      ///< Date keys sorted (the fallback).
};

/// Executes a compiled kernel under schedules, ordering every statement
/// instance by logical date (ties broken by statement, then iterators);
/// its plan scratch is reused across schedules.
class DateOrderExecutor {
public:
  DateOrderExecutor();
  ~DateOrderExecutor();

  /// Plans the date order of \p S over \p Code, which must outlive the
  /// plan's runs. Raises RecoverableError: exec.interpret when \p S does
  /// not match the kernel or the kernel has 2^32 or more instances,
  /// Overflow when a date leaves 64 bits. With \p Walk false the plan
  /// never walks (differential tests compare the two paths).
  DateOrder plan(const CompiledKernel &Code, const Schedule &S,
                 bool Walk = true);

  /// Executes every instance on \p Buffers in the planned order.
  void run(ExecBuffers &Buffers);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Executes \p K in the order defined by \p S (all statement instances
/// ordered by logical date; ties are semantically unordered and broken
/// by statement, then iterators).
void runScheduled(const Kernel &K, const Schedule &S, ExecBuffers &Buffers);

/// Elementwise comparison with relative/absolute tolerance.
bool buffersAlmostEqual(const ExecBuffers &A, const ExecBuffers &B,
                        double Tolerance = 1e-9);

/// Checks schedules of one kernel against one original-order run: the
/// reference buffers are computed by the first check whose schedule is
/// not in the enumeration order and shared by the later ones, and the
/// plan scratch is reused.
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

private:
  struct State;
  const Kernel &K;
  unsigned Seed;
  std::unique_ptr<State> St;
};

/// Convenience: returns true if executing \p K under \p S produces the
/// same buffers as the original order for a seeded random input.
bool scheduleIsSemanticallyEqual(const Kernel &K, const Schedule &S,
                                 unsigned Seed = 1);

} // namespace pinj

#endif // POLYINJECT_EXEC_INTERPRETER_H
