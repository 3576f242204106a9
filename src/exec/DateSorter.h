//===- exec/DateSorter.h - Sorted date order oracle -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test oracle that runs any schedule, and the run helpers the tests
/// share. DateSorter orders a compiled kernel's instances by sorting
/// packed date keys, so it also runs the skewed schedules that
/// DateOrderExecutor refuses to walk. Unlike exec/Reference it keeps no
/// per-instance dates or iterators (eight bytes of key and four of order
/// per instance), so it runs the Table II suites.
///
/// Linked only by tests (polyinject_oracles), never shipped in the
/// library.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_EXEC_DATESORTER_H
#define POLYINJECT_EXEC_DATESORTER_H

#include "exec/Interpreter.h"

namespace pinj {

/// Orders a compiled kernel's instances by a schedule's dates. Each
/// dimension's dates are shifted to start at zero and consecutive
/// dimensions are packed into mixed-radix 64-bit keys (a new key starts
/// whenever the product of the dimensions' ranges would pass 2^64;
/// constant dimensions are dropped). Keys are affine in the iterators
/// and computed with wrapping arithmetic, which is exact because every
/// true key fits in 64 bits. The keys are sorted least significant first
/// by stable counting/radix passes that start from the enumeration
/// order, so ties keep the (statement, iterators) order.
class DateSorter {
public:
  /// Orders the instances of \p Code, which must outlive the runs, by
  /// \p S's dates. \p S must pass DateOrderExecutor::plan's checks other
  /// than the walk: it matches the kernel, the kernel has fewer than 2^32
  /// instances, and every date fits in 64 bits. \returns false when the
  /// date order is the enumeration order.
  bool sort(const CompiledKernel &Code, const Schedule &S);

  /// Executes every instance on \p Data, the tensor base pointers, in
  /// the sorted order.
  void run(double *const *Data) const;
  void run(ExecBuffers &Buffers) const {
    run(CompiledKernel::tensorData(Buffers).data());
  }

private:
  struct KeyDim {
    unsigned Dim;
    std::uint64_t Radix; ///< Multiplier of the dimension's shifted date.
  };

  void fillKeys(const Schedule &S, const std::vector<Int> &Lo,
                const KeyDim *First, const KeyDim *Last);
  void sortBy(std::uint64_t MaxKey);

  const CompiledKernel *Code = nullptr;
  std::vector<std::uint64_t> Keys, KeysTmp, KeyCoefs;
  std::vector<std::uint32_t> Order, OrderTmp, Counts;
  bool Identity = true;
};

/// Executes \p K in the original program order.
void runOriginal(const Kernel &K, ExecBuffers &Buffers);

/// Executes \p K in the order defined by \p S (all statement instances
/// ordered by logical date; ties are semantically unordered and broken
/// by statement, then iterators): walked by DateOrderExecutor when it
/// can, else in DateSorter's order. Raises what DateOrderExecutor::plan
/// raises for a schedule it cannot measure.
void runScheduled(const Kernel &K, const Schedule &S, ExecBuffers &Buffers);

/// Tensor-by-tensor tensorsAlmostEqual of \p A and \p B.
bool buffersAlmostEqual(const ExecBuffers &A, const ExecBuffers &B,
                        double Tolerance = 1e-9);

} // namespace pinj

#endif // POLYINJECT_EXEC_DATESORTER_H
