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
/// iteration box. A schedule's dates are packed into flat mixed-radix
/// keys and the instances are ordered by a stable counting/radix sort
/// over the enumeration order (statement-major, then row-major
/// iterators), which is exactly the (date, statement, iterators)
/// tie-break. Nothing is allocated per instance. The date-sorting
/// interpreter this replaces is kept as a test oracle (exec/Reference.h).
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

  /// Executes iteration \p Iters of statement \p Stmt on \p Data, the
  /// buffers' tensor base pointers (see tensorData).
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

  std::uint64_t offset(const FlatAccess &A, const FlatStmt &S,
                       const Int *Iters) const;

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

/// Executes \p K in the order defined by \p S (all statement instances
/// ordered by logical date; ties are semantically unordered and broken
/// by statement, then iterators).
void runScheduled(const Kernel &K, const Schedule &S, ExecBuffers &Buffers);

/// Elementwise comparison with relative/absolute tolerance.
bool buffersAlmostEqual(const ExecBuffers &A, const ExecBuffers &B,
                        double Tolerance = 1e-9);

/// Checks schedules of one kernel against one original-order run: the
/// reference buffers are computed by the first check and shared by the
/// later ones, and the sort buffers are reused.
class ScheduleValidator {
public:
  explicit ScheduleValidator(const Kernel &K, unsigned Seed = 1);
  ~ScheduleValidator();

  /// True if executing the kernel under \p S produces the same buffers as
  /// the original order. Hits the exec.interpret fail-point.
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
