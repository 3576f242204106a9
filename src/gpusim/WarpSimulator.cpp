//===- gpusim/WarpSimulator.cpp -------------------------------------------===//

#include "gpusim/GpuModel.h"

#include "influence/AccessAnalysis.h"
#include "obs/Metrics.h"
#include "support/FailPoint.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>

using namespace pinj;

using U64 = std::uint64_t;

unsigned pinj::countSectors(
    const std::vector<std::pair<Int, unsigned>> &Accesses,
    unsigned SectorBytes) {
  // One scratch buffer per thread: batch and daemon workers simulate
  // concurrently, and a warm buffer makes the count allocation-free.
  thread_local std::vector<Int> Sectors;
  Sectors.clear();
  const Int Bytes = SectorBytes;
  for (const auto &[Addr, Size] : Accesses) {
    // Counted from Addr's own sector, so that no sum overflows even for
    // the wrapped address of an out-of-bounds access.
    Int First = floorDiv(Addr, Bytes);
    Int InSector = Addr % Bytes;
    if (InSector < 0)
      InSector += Bytes;
    Int Span = floorDiv(InSector + static_cast<Int>(Size) - 1, Bytes);
    for (Int S = 0; S <= Span; ++S)
      Sectors.push_back(Int(U64(First) + U64(S)));
  }
  std::sort(Sectors.begin(), Sectors.end());
  return std::unique(Sectors.begin(), Sectors.end()) - Sectors.begin();
}

double pinj::SectorTransactionModel::transactionsFor(
    const std::vector<std::pair<Int, unsigned>> &Accesses) const {
  return countSectors(Accesses, Bytes);
}

namespace {

/// Lane access shape of one tensor access inside (or outside) a vector
/// loop.
enum class LaneAccessKind {
  Scalar,    ///< One 4-byte access per instance.
  Vector,    ///< One Width*4-byte access per vector step.
  Broadcast, ///< Constant in the vector iterator: one scalar access.
  Replay     ///< Strided in the vector iterator: Width scalar accesses.
};

/// Per-statement simulation state. Generic over the transaction model:
/// the walk itself only needs the lane-group size and the coalescing
/// rule, so the GPU warp/sector and CPU vector/cache-line targets share
/// it (and share its arithmetic exactly — the GPU path must stay
/// bit-identical to the pre-target-subsystem simulator).
class StmtSimulator {
public:
  StmtSimulator(const MappedKernel &M, const TransactionModel &Tx,
                unsigned Stmt)
      : M(M), K(*M.K), Tx(Tx), LaneCount(Tx.laneCount()), StmtId(Stmt),
        S(K.Stmts[Stmt]), Strides(analyzeStrides(K, S)) {
    // Stride of each access along each *schedule dimension*.
    unsigned ND = M.Dims.size();
    DimStride.assign(Strides.size(), std::vector<Int>(ND, 0));
    for (unsigned A = 0; A != Strides.size(); ++A)
      for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
        if (M.IterDim[StmtId][I] >= 0)
          DimStride[A][M.IterDim[StmtId][I]] = Strides[A].StridePerIter[I];

    // Per-dimension extent for this statement (1 when unbound).
    StmtExtent.assign(ND, 1);
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      if (M.IterDim[StmtId][I] >= 0)
        StmtExtent[M.IterDim[StmtId][I]] = S.Extents[I];

    VectorDim = -1;
    VectorWidth = 0;
    for (unsigned D = 0; D != ND; ++D) {
      if (M.Dims[D].Role == DimRole::Vector && StmtExtent[D] > 1 &&
          M.Sched.Dims[D].isVectorFor(StmtId)) {
        VectorDim = static_cast<int>(D);
        VectorWidth = M.Dims[D].VectorWidth;
      }
    }
    assert((VectorDim >= 0 || VectorWidth == 0) && "width without dim");

    Kinds.reserve(Strides.size());
    for (unsigned A = 0; A != Strides.size(); ++A)
      Kinds.push_back(accessKind(A));
    Coord.assign(ND, 0);
  }

  /// Accumulates this statement's contribution into the totals.
  void accumulate(KernelSim &Sim) {
    unsigned ElemBytes = 4;

    // Thread-dim decomposition of the block's lanes, innermost fastest.
    // Vector dims participate as lane groups: coordinate scale is the
    // vector width (each lane covers Width consecutive iterations).
    std::vector<ThreadDim> ThreadDims;
    for (unsigned D = M.Dims.size(); D-- > 0;) {
      if (M.Dims[D].Role == DimRole::Thread)
        ThreadDims.push_back({D, M.Dims[D].ThreadCount, 1});
      else if (M.Dims[D].Role == DimRole::Vector)
        ThreadDims.push_back(
            {D, M.Dims[D].ThreadCount,
             static_cast<Int>(M.Dims[D].VectorWidth)});
    }
    Int ThreadsPerBlock = 1;
    for (const ThreadDim &T : ThreadDims)
      ThreadsPerBlock = checkedMul(ThreadsPerBlock, T.Count);
    Int WarpsPerBlock =
        std::max<Int>(1, ceilDiv(ThreadsPerBlock, LaneCount));
    Int TotalBlocks = M.numBlocks();
    double TotalWarps =
        static_cast<double>(WarpsPerBlock) * static_cast<double>(TotalBlocks);

    // Per-thread sequential work of this statement: sequential dims plus
    // any leftover of vector dims the lanes and blocks do not cover.
    double StepsPerThread = 1;
    for (unsigned D = 0, ND = M.Dims.size(); D != ND; ++D) {
      const DimMapping &Dim = M.Dims[D];
      if (Dim.Role == DimRole::Seq) {
        StepsPerThread *= static_cast<double>(StmtExtent[D]);
      } else if ((Dim.Role == DimRole::Vector ||
                  Dim.Role == DimRole::Thread) &&
                 StmtExtent[D] > 1) {
        // Lane groups not covered by threads and block splits loop
        // inside each thread (sync-parallel dims keep BlockFactor 1).
        Int Groups = Dim.Role == DimRole::Vector
                         ? ceilDiv(StmtExtent[D], Dim.VectorWidth)
                         : StmtExtent[D];
        Int Covered = checkedMul(Dim.ThreadCount, Dim.BlockFactor);
        StepsPerThread *=
            static_cast<double>(std::max<Int>(1, ceilDiv(Groups, Covered)));
      }
    }

    // Sample a handful of warps of block 0 at two sequential positions.
    const unsigned MaxSampleWarps = 16;
    unsigned SampleCount =
        std::min<unsigned>(MaxSampleWarps, static_cast<unsigned>(
                                               std::min<Int>(WarpsPerBlock,
                                                             1 << 20)));
    double WarpStride =
        static_cast<double>(WarpsPerBlock) / std::max(1u, SampleCount);

    double SumTransactions = 0, SumInstructions = 0, SumActive = 0;
    unsigned Samples = 0;
    for (unsigned WS = 0; WS != SampleCount; ++WS) {
      Int Warp = static_cast<Int>(WS * WarpStride);
      for (Int SeqPos : {Int(0), Int(1)}) {
        double Tx = 0, Instr = 0, Active = 0;
        simulateWarp(Warp, SeqPos, ThreadDims, ElemBytes, Tx, Instr,
                     Active);
        SumTransactions += Tx;
        SumInstructions += Instr;
        SumActive += Active;
        ++Samples;
      }
    }
    static obs::Counter &WarpSamples =
        obs::metrics().counter("gpusim.warps_simulated");
    WarpSamples.add(Samples);
    if (Samples == 0)
      return;
    double AvgTx = SumTransactions / Samples;
    double AvgInstr = SumInstructions / Samples;
    double AvgActive = SumActive / Samples;

    double WarpSteps = TotalWarps * StepsPerThread;
    Sim.Transactions += AvgTx * WarpSteps;
    Sim.TransactionBytes += AvgTx * WarpSteps * Tx.transactionBytes();
    Sim.MemInstructions += AvgInstr * WarpSteps;
    Sim.ComputeInstructions += AvgActive * WarpSteps;
    double Instances = 1;
    for (Int E : S.Extents)
      Instances *= static_cast<double>(E);
    Sim.UsefulBytes += Instances * ElemBytes * (1 + S.Reads.size());
    Sim.Warps = std::max(Sim.Warps, TotalWarps);
  }

private:
  LaneAccessKind accessKind(unsigned A) const {
    if (VectorDim < 0)
      return LaneAccessKind::Scalar;
    Int Stride = DimStride[A][VectorDim];
    if (Stride == 0)
      return LaneAccessKind::Broadcast;
    if (Stride == 1 &&
        isVectorizableAccess(Strides[A],
                             boundIterOf(static_cast<unsigned>(VectorDim)),
                             VectorWidth))
      return LaneAccessKind::Vector;
    return LaneAccessKind::Replay;
  }

  unsigned boundIterOf(unsigned Dim) const {
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      if (M.IterDim[StmtId][I] == static_cast<int>(Dim))
        return I;
    return 0;
  }

  struct ThreadDim {
    unsigned Dim;
    Int Count;
    Int Scale; ///< Iterator units per lane step (vector width or 1).
  };

  void simulateWarp(Int Warp, Int SeqPos,
                    const std::vector<ThreadDim> &ThreadDims,
                    unsigned ElemBytes, double &TxCount, double &Instr,
                    double &Active) {
    // Sequential dims sit at the sampled position; every active lane
    // below overwrites all thread dims, so Coord is set up once.
    const unsigned ND = M.Dims.size();
    for (unsigned D = 0; D != ND; ++D)
      Coord[D] = M.Dims[D].Role == DimRole::Seq
                     ? std::min<Int>(SeqPos, StmtExtent[D] - 1)
                     : 0;

    // Coordinates of the active lanes, ND entries each.
    LaneCoords.clear();
    unsigned ActiveLanes = 0;
    for (unsigned Lane = 0; Lane != LaneCount; ++Lane) {
      Int Linear = Warp * LaneCount + Lane;
      // Decompose into thread-dim coordinates, innermost fastest.
      bool LaneActive = true;
      Int Remainder = Linear;
      for (const ThreadDim &T : ThreadDims) {
        Int C = (Remainder % T.Count) * T.Scale;
        Remainder /= T.Count;
        // Statements unbound at this dim (extent 1) execute only at
        // coordinate 0; bound ones only within their extent.
        if (C >= StmtExtent[T.Dim]) {
          LaneActive = false;
          break;
        }
        Coord[T.Dim] = C;
      }
      if (Remainder != 0)
        LaneActive = false; // Beyond the block's thread space.
      if (!LaneActive)
        continue;
      ++ActiveLanes;
      LaneCoords.insert(LaneCoords.end(), Coord.begin(), Coord.end());
    }

    for (unsigned A = 0, NA = Strides.size(); A != NA; ++A) {
      const std::vector<Int> &Stride = DimStride[A];
      LaneAccesses.clear();
      for (unsigned L = 0; L != ActiveLanes; ++L) {
        const Int *LaneCoord = LaneCoords.data() + size_t(L) * ND;
        // Byte addresses in wrapping unsigned arithmetic, like exec's
        // flat offsets: exact for every in-bounds access, and defined
        // for an out-of-bounds one.
        U64 Elem = U64(Strides[A].ConstOffset);
        for (unsigned D = 0; D != ND; ++D)
          Elem += U64(Stride[D]) * U64(LaneCoord[D]);
        U64 Addr = Elem * ElemBytes;
        switch (Kinds[A]) {
        case LaneAccessKind::Scalar:
        case LaneAccessKind::Broadcast:
          LaneAccesses.emplace_back(Int(Addr), ElemBytes);
          Instr += 1;
          break;
        case LaneAccessKind::Vector:
          LaneAccesses.emplace_back(Int(Addr), ElemBytes * VectorWidth);
          Instr += 1;
          break;
        case LaneAccessKind::Replay: {
          U64 VecStride = U64(Stride[VectorDim]);
          for (unsigned E = 0; E != VectorWidth; ++E)
            LaneAccesses.emplace_back(Int(Addr + VecStride * ElemBytes * E),
                                      ElemBytes);
          Instr += VectorWidth;
          break;
        }
        }
      }
      TxCount += Tx.transactionsFor(LaneAccesses);
      if (A == 0)
        Active += ActiveLanes; // Count statement instances once.
    }
  }

  const MappedKernel &M;
  const Kernel &K;
  const TransactionModel &Tx;
  unsigned LaneCount;
  unsigned StmtId;
  const Statement &S;
  std::vector<AccessStrides> Strides;
  std::vector<std::vector<Int>> DimStride;
  std::vector<Int> StmtExtent;
  int VectorDim = -1;
  unsigned VectorWidth = 0;
  std::vector<LaneAccessKind> Kinds; ///< Per access, fixed per statement.
  // Lane-walk buffers, reused across sampled warps.
  std::vector<Int> Coord;
  std::vector<Int> LaneCoords;
  std::vector<std::pair<Int, unsigned>> LaneAccesses;
};

} // namespace

KernelSim pinj::accumulateTransactions(const MappedKernel &M,
                                       const TransactionModel &Tx) {
  KernelSim Sim;
  for (unsigned Stmt = 0, E = M.K->Stmts.size(); Stmt != E; ++Stmt) {
    StmtSimulator StmtSim(M, Tx, Stmt);
    StmtSim.accumulate(Sim);
  }
  return Sim;
}

KernelSim pinj::finishGpuTime(KernelSim Sim, const GpuModel &Model) {
  // Analytic time model. Bandwidth saturation depends on the bytes the
  // kernel keeps in flight: a float4 kernel with 4x fewer warps moves
  // the same bytes per request wave as its scalar counterpart.
  double WarpRequests =
      Sim.MemInstructions / std::max(1.0, double(Model.WarpSize));
  double BytesPerRequest =
      WarpRequests > 0 ? Sim.TransactionBytes / WarpRequests : 0.0;
  double BytesPerLane = Sim.MemInstructions > 0
                            ? Sim.UsefulBytes / Sim.MemInstructions
                            : 4.0;
  double Efficiency =
      Model.bandwidthEfficiency(Sim.Warps, BytesPerRequest, BytesPerLane);
  double EffBandwidth = Model.PeakBandwidthGBs * Efficiency; // GB/s
  Sim.MemTimeUs =
      Sim.TransactionBytes / (EffBandwidth * 1e9) * 1e6; // bytes -> us
  Sim.ComputeTimeUs =
      (Sim.MemInstructions + Sim.ComputeInstructions) /
      (Model.IssueRateGops * 1e9) * 1e6;
  Sim.TimeUs =
      Model.LaunchOverheadUs + std::max(Sim.MemTimeUs, Sim.ComputeTimeUs);
  return Sim;
}

KernelSim pinj::simulateKernel(const MappedKernel &M, const GpuModel &Model) {
  obs::Span Sp("gpusim.simulate");
  failpoint::hit("gpusim.simulate");
  SectorTransactionModel Tx(Model.WarpSize, Model.SectorBytes);
  KernelSim Sim = finishGpuTime(accumulateTransactions(M, Tx), Model);

  static obs::Counter &Kernels =
      obs::metrics().counter("gpusim.kernels_simulated");
  static obs::Counter &Transactions =
      obs::metrics().counter("gpusim.transactions");
  static obs::Histogram &TxPerKernel =
      obs::metrics().histogram("gpusim.transactions_per_kernel");
  Kernels.inc();
  Transactions.add(
      static_cast<std::uint64_t>(std::llround(std::max(0.0, Sim.Transactions))));
  TxPerKernel.observe(Sim.Transactions);
  if (Sp.active())
    Sp.arg("kernel", M.K->Name)
        .arg("transactions", Sim.Transactions)
        .arg("warps", Sim.Warps)
        .arg("time_us", Sim.TimeUs);
  return Sim;
}
