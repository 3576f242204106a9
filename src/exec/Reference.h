//===- exec/Reference.h - Date-sorting reference interpreter ----*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original interpreter preserved as a differential oracle: it
/// materialises every statement instance with a heap-allocated date and
/// iterator vector, stable-sorts them by (date, statement, iterators),
/// and flattens each access through the tensor's strides on every
/// execution. The production executor in exec/Interpreter must leave
/// bit-identical buffers; tests/exec_test.cpp enforces that on the
/// corpus, the test kernels and random kernels. It shares only the op
/// semantics (evaluateOp) with the executor.
///
/// The reference path hits no fail-points: it is an oracle, not a
/// production code path.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_EXEC_REFERENCE_H
#define POLYINJECT_EXEC_REFERENCE_H

#include "exec/Interpreter.h"

namespace pinj {

/// Executes \p K in the original program order, one instance at a time.
void referenceRunOriginal(const Kernel &K, ExecBuffers &Buffers);

/// Executes \p K under \p S by stable-sorting every materialised
/// instance by (date, statement, iterators).
void referenceRunScheduled(const Kernel &K, const Schedule &S,
                           ExecBuffers &Buffers);

} // namespace pinj

#endif // POLYINJECT_EXEC_REFERENCE_H
