//===- baselines/TvmProxy.h - Manual-schedule baseline ----------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stand-in for the paper's "tvm" column: TVM's manual scheduling
/// approach. Each primitive statement runs as its own kernel launch
/// (TVM does not see MindSpore's graph-kernel fusion), with a
/// hand-tuned-style schedule: the write-contiguous iterator goes
/// innermost (coalesced stores), and transpose-like statements whose
/// reads cannot coalesce under that order are modeled as TVM's
/// shared-memory tiled schedules (both sides coalesced at the cost of
/// extra instructions). See DESIGN.md for the substitution rationale.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_BASELINES_TVMPROXY_H
#define POLYINJECT_BASELINES_TVMPROXY_H

#include "gpusim/GpuModel.h"

namespace pinj {

namespace target {
class TargetModel;
}

/// Result of simulating one operator under the TVM proxy.
struct TvmProxyResult {
  double TimeUs = 0;          ///< Total over all per-statement launches.
  unsigned Launches = 0;
  KernelSim Aggregate;        ///< Summed transaction statistics.
};

/// A single-statement kernel around statement \p Stmt of \p K.
Kernel extractStatement(const Kernel &K, unsigned Stmt);

/// The manual schedule for a single-statement kernel: original iterator
/// order with the write-contiguous iterator rotated innermost.
Schedule buildTvmSchedule(const Kernel &SubKernel);

/// Simulates \p K under the TVM proxy (one launch per statement) on
/// target \p T. On a GPU-analytic target, statements whose reads stay
/// uncoalesced get the shared-memory tile rewrite; any other backend
/// scores the launches as simulated, since the tile is a CUDA
/// shared-memory idiom and does not transfer.
TvmProxyResult simulateTvmProxy(const Kernel &K,
                                const target::TargetModel &T,
                                const GpuMappingOptions &Mapping);

/// The same on a GPU-analytic target over \p Model.
TvmProxyResult simulateTvmProxy(const Kernel &K, const GpuModel &Model,
                                const GpuMappingOptions &Mapping);

} // namespace pinj

#endif // POLYINJECT_BASELINES_TVMPROXY_H
