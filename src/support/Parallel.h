//===- support/Parallel.h - Index-range worker pool -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_PARALLEL_H
#define POLYINJECT_SUPPORT_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace pinj {

/// Calls \p Fn(I) for every I in [0, Count) on min(Jobs, Count) threads
/// pulling indices from one atomic counter; with one worker, inline and
/// in order. Callers that write only slot I of a presized output get
/// results independent of the worker count.
template <typename FnT>
void parallelFor(std::size_t Count, unsigned Jobs, FnT &&Fn) {
  std::size_t Workers = std::min<std::size_t>(Jobs, Count);
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t I; (I = Next.fetch_add(1)) < Count;)
      Fn(I);
  };
  if (Workers <= 1)
    return Work();
  std::vector<std::thread> Pool;
  for (std::size_t W = 0; W < Workers; ++W)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
}

} // namespace pinj

#endif // POLYINJECT_SUPPORT_PARALLEL_H
