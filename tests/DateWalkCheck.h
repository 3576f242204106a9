//===- tests/DateWalkCheck.h - Walk vs sorted date order -------*- C++ -*-===//

#ifndef POLYINJECT_TESTS_DATEWALKCHECK_H
#define POLYINJECT_TESTS_DATEWALKCHECK_H

#include "exec/DateSorter.h"

#include <string>

#include <gtest/gtest.h>

namespace pinj {

/// Runs \p S through the date-order walk and through the sorted-order
/// oracle: both must leave bit-identical buffers and agree on whether the
/// date order is the enumeration order. \returns the walk's plan; raises
/// what DateOrderExecutor::plan raises when \p S cannot be walked.
inline DateOrder expectWalkMatchesSort(const Kernel &K, const Schedule &S,
                                       const std::string &What) {
  CompiledKernel Code(K);
  DateOrderExecutor Walk;
  DateOrder Kind = Walk.plan(Code, S);
  DateSorter Sort;
  bool Sorted = Sort.sort(Code, S);
  EXPECT_EQ(Kind == DateOrder::Enumeration, !Sorted) << What;
  ExecBuffers Walked = makeInputs(K, 1), Slow = Walked;
  Walk.run(Walked);
  Sort.run(Slow);
  EXPECT_TRUE(Walked.Tensors == Slow.Tensors) << What;
  return Kind;
}

} // namespace pinj

#endif // POLYINJECT_TESTS_DATEWALKCHECK_H
