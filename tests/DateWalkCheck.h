//===- tests/DateWalkCheck.h - Walk vs sorted date order -------*- C++ -*-===//

#ifndef POLYINJECT_TESTS_DATEWALKCHECK_H
#define POLYINJECT_TESTS_DATEWALKCHECK_H

#include "exec/Interpreter.h"

#include <string>

#include <gtest/gtest.h>

namespace pinj {

/// Runs \p S through the date-order walk and through the sorted fallback:
/// both must leave bit-identical buffers and agree on whether the date
/// order is the enumeration order. \returns the walk's plan.
inline DateOrder expectWalkMatchesSort(const Kernel &K, const Schedule &S,
                                       const std::string &What) {
  CompiledKernel Code(K);
  DateOrderExecutor Walk, Sort;
  DateOrder Kind = Walk.plan(Code, S);
  DateOrder Sorted = Sort.plan(Code, S, false);
  EXPECT_NE(Sorted, DateOrder::Walk) << What;
  EXPECT_EQ(Kind == DateOrder::Enumeration, Sorted == DateOrder::Enumeration)
      << What;
  ExecBuffers Walked = makeInputs(K, 1), Slow = Walked;
  Walk.run(Walked);
  Sort.run(Slow);
  EXPECT_TRUE(Walked.Tensors == Slow.Tensors) << What;
  return Kind;
}

} // namespace pinj

#endif // POLYINJECT_TESTS_DATEWALKCHECK_H
