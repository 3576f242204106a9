//===- gpusim/GpuModel.h - Analytic GPU performance model -------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stand-in for the paper's Tesla V100 + nvprof measurements: a
/// warp-level memory-transaction model. Lanes of a warp issue loads and
/// stores; addresses are grouped into 32-byte sectors (coalescing);
/// explicit vector types turn four scalar accesses into one 64/128-bit
/// lane access. Kernel time is the maximum of an analytic bandwidth term
/// (transactions x sector size / effective bandwidth) and an instruction
/// issue term, plus a launch overhead — the regime the paper's
/// bandwidth-bound fused operators live in.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_GPUSIM_GPUMODEL_H
#define POLYINJECT_GPUSIM_GPUMODEL_H

#include "codegen/Mapping.h"

#include <vector>

namespace pinj {

/// Machine parameters; defaults approximate a Tesla V100 (PCIe). The
/// named presets (v100, a100, p100) are built-in targets: see
/// target/Target.h.
struct GpuModel {
  unsigned WarpSize = 32;
  unsigned SectorBytes = 32;
  double PeakBandwidthGBs = 900.0;  ///< HBM2.
  double IssueRateGops = 4000.0;    ///< Scalar instruction issue, whole GPU.
  double LaunchOverheadUs = 4.0;    ///< Per kernel launch.
  /// Memory requests a warp keeps in flight (latency hiding).
  double OutstandingRequestsPerWarp = 6.0;
  /// Bytes in flight at which half the peak bandwidth is reached
  /// (~bandwidth x latency scale); the saturation curve is x / (1 + x).
  double HalfSaturationBytes = 96.0 * 1024.0;
  /// Bandwidth efficiency floor for tiny launches.
  double MinEfficiency = 0.02;
  /// DRAM/issue efficiency of narrow accesses relative to 128-bit ones:
  /// a scalar-float kernel reaches NarrowAccessEfficiency of the
  /// bandwidth a float4 kernel reaches (measured ~0.85-0.9 on V100).
  double NarrowAccessEfficiency = 0.85;

  /// Effective bandwidth fraction for a kernel keeping \p Warps warps
  /// resident with \p BytesPerRequest bytes per warp-level request and
  /// an average per-lane access size of \p BytesPerLane.
  double bandwidthEfficiency(double Warps, double BytesPerRequest,
                             double BytesPerLane) const {
    double InFlight = Warps * OutstandingRequestsPerWarp * BytesPerRequest;
    double X =
        HalfSaturationBytes > 0 ? InFlight / HalfSaturationBytes : 1.0;
    double Fraction = X / (1.0 + X);
    // Wide (64/128-bit) lane accesses use DRAM bursts and the LSU
    // pipeline better; interpolate between narrow and full efficiency.
    double LaneScale = BytesPerLane >= 16.0 ? 1.0 : BytesPerLane / 16.0;
    Fraction *=
        NarrowAccessEfficiency + (1.0 - NarrowAccessEfficiency) * LaneScale;
    return Fraction < MinEfficiency ? MinEfficiency : Fraction;
  }
};

/// Simulation result for one kernel launch.
struct KernelSim {
  double TimeUs = 0;
  double MemTimeUs = 0;
  double ComputeTimeUs = 0;
  double Transactions = 0;     ///< 32B sector transactions.
  double TransactionBytes = 0; ///< Transactions x SectorBytes.
  double UsefulBytes = 0;      ///< Bytes the program actually touches.
  double MemInstructions = 0;  ///< Load/store instructions issued.
  double ComputeInstructions = 0;
  double Warps = 0;

  /// Fraction of transferred bytes the program uses (coalescing
  /// quality).
  double efficiency() const {
    return TransactionBytes > 0 ? UsefulBytes / TransactionBytes : 1.0;
  }
};

/// The transaction-model half of a backend target (see src/target/): how
/// many lanes issue memory accesses together, the machine's transaction
/// granularity, and how one lane group's accesses coalesce into
/// transactions. The lane walk in WarpSimulator.cpp is generic over this
/// interface; the GPU plugs in 32-lane warps over 32-byte sectors, the
/// CPU-SIMD target 16-lane vectors over 64-byte cache lines.
class TransactionModel {
public:
  virtual ~TransactionModel() = default;
  /// Lanes that issue one memory request together (warp size / SIMD
  /// width). Also the granularity of the per-thread work decomposition.
  virtual unsigned laneCount() const = 0;
  /// Bytes moved per transaction (sector / cache line).
  virtual unsigned transactionBytes() const = 0;
  /// Transactions needed to serve one lane group's accesses
  /// ((byte address, size) pairs).
  virtual double
  transactionsFor(const std::vector<std::pair<Int, unsigned>> &Accesses)
      const = 0;
};

/// Distinct-aligned-blocks coalescing: the transaction count is the
/// number of distinct TransactionBytes-aligned blocks the group touches
/// (GPU sectors and CPU cache lines both behave this way; they differ in
/// lane count and granularity).
class SectorTransactionModel : public TransactionModel {
public:
  SectorTransactionModel(unsigned Lanes, unsigned Bytes)
      : Lanes(Lanes), Bytes(Bytes) {}
  unsigned laneCount() const override { return Lanes; }
  unsigned transactionBytes() const override { return Bytes; }
  double transactionsFor(const std::vector<std::pair<Int, unsigned>>
                             &Accesses) const override;

private:
  unsigned Lanes;
  unsigned Bytes;
};

/// Walks every statement of \p M and accumulates the transaction-model
/// counters: Transactions, TransactionBytes, UsefulBytes,
/// MemInstructions, ComputeInstructions and Warps. The time fields are
/// left zero — a time model (finishGpuTime, or a target's finishTime)
/// turns counters into microseconds. Counters are independent of every
/// time-model constant, which is what makes calibration cheap: the
/// calibrator accumulates each table row once and re-applies candidate
/// time parameters to the fixed counters.
KernelSim accumulateTransactions(const MappedKernel &M,
                                 const TransactionModel &Tx);

/// The GPU analytic time model applied to accumulated counters:
/// bandwidth-saturation efficiency from warps in flight, memory vs
/// compute overlap (max), plus launch overhead.
KernelSim finishGpuTime(KernelSim Counters, const GpuModel &Model);

/// Simulates one mapped kernel on \p Model. Exactly
/// finishGpuTime(accumulateTransactions(M, <WarpSize/SectorBytes>), Model)
/// plus the gpusim trace span and metrics.
KernelSim simulateKernel(const MappedKernel &M, const GpuModel &Model);

/// Counts the 32-byte sectors touched by a set of per-lane byte accesses
/// (address, size). Exposed for unit testing the coalescing rules.
unsigned countSectors(const std::vector<std::pair<Int, unsigned>> &Accesses,
                      unsigned SectorBytes = 32);

} // namespace pinj

#endif // POLYINJECT_GPUSIM_GPUMODEL_H
