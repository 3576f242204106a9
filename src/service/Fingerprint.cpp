//===- service/Fingerprint.cpp --------------------------------------------===//

#include "service/Fingerprint.h"

#include "pipeline/Pipeline.h"
#include "target/GpuAnalyticTarget.h"

#include <cstring>

using namespace pinj;
using namespace pinj::service;

namespace {

constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t FnvPrime = 0x100000001b3ull;
// The second lane starts from a different basis and salts every byte,
// making the two lanes independent hash functions over the same stream.
constexpr std::uint64_t Lane2Offset = 0x6c62272e07bb0142ull;
constexpr std::uint8_t Lane2Salt = 0x9e;

} // namespace

std::string Fingerprint::str() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out(32, '0');
  for (unsigned I = 0; I != 16; ++I)
    Out[15 - I] = Digits[(Hi >> (4 * I)) & 0xf];
  for (unsigned I = 0; I != 16; ++I)
    Out[31 - I] = Digits[(Lo >> (4 * I)) & 0xf];
  return Out;
}

bool Fingerprint::fromHex(const std::string &Hex, Fingerprint &Out) {
  if (Hex.size() != 32)
    return false;
  std::uint64_t Lanes[2] = {0, 0};
  for (unsigned I = 0; I != 32; ++I) {
    char C = Hex[I];
    unsigned Nibble;
    if (C >= '0' && C <= '9')
      Nibble = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nibble = unsigned(C - 'a') + 10;
    else
      return false;
    Lanes[I / 16] = (Lanes[I / 16] << 4) | Nibble;
  }
  Out.Hi = Lanes[0];
  Out.Lo = Lanes[1];
  return true;
}

FingerprintBuilder::FingerprintBuilder() : Hi(FnvOffset), Lo(Lane2Offset) {}

void FingerprintBuilder::byte(std::uint8_t B) {
  Hi = (Hi ^ B) * FnvPrime;
  Lo = (Lo ^ static_cast<std::uint8_t>(B ^ Lane2Salt)) * FnvPrime;
}

void FingerprintBuilder::u32(std::uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    byte(static_cast<std::uint8_t>(V >> (8 * I)));
}

void FingerprintBuilder::u64(std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    byte(static_cast<std::uint8_t>(V >> (8 * I)));
}

void FingerprintBuilder::f64(double V) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void FingerprintBuilder::str(const std::string &S) {
  u64(S.size());
  for (char C : S)
    byte(static_cast<std::uint8_t>(C));
}

namespace {

void hashAccess(FingerprintBuilder &H, const Access &A) {
  H.u32(A.TensorId);
  H.byte(A.IsWrite ? 1 : 0);
  H.u64(A.Indices.size());
  for (const IntVector &Row : A.Indices) {
    H.u64(Row.size());
    for (Int V : Row)
      H.i64(V);
  }
}

void hashTerms(FingerprintBuilder &H, const std::vector<CoeffTerm> &Terms) {
  H.u64(Terms.size());
  for (const CoeffTerm &T : Terms) {
    H.u32(T.Stmt);
    H.u32(T.Dim);
    H.u32(T.CoeffIdx);
    H.i64(T.Factor);
  }
}

void hashNode(FingerprintBuilder &H, const InfluenceNode &N) {
  H.u32(N.Depth);
  H.str(N.Label);
  H.byte(N.RequireParallel ? 1 : 0);
  H.u64(N.Constraints.size());
  for (const InfluenceConstraint &C : N.Constraints) {
    hashTerms(H, C.Terms);
    H.i64(C.Constant);
    H.byte(static_cast<std::uint8_t>(C.Rel));
  }
  H.u64(N.Objectives.size());
  for (const InfluenceObjective &O : N.Objectives)
    hashTerms(H, O.Terms);
  H.u64(N.VectorStmts.size());
  for (unsigned S : N.VectorStmts)
    H.u32(S);
  H.u32(N.VectorWidth);
  H.u64(N.Children.size());
  for (const auto &Child : N.Children)
    hashNode(H, *Child);
}

} // namespace

void service::hashBudget(FingerprintBuilder &H, const SolverBudget &B) {
  H.u64(B.MaxPivots);
  H.u64(B.MaxIlpNodes);
  H.f64(B.WallMs);
}

void service::hashSchedulerOptions(FingerprintBuilder &H,
                                   const SchedulerOptions &S) {
  H.i64(S.CoeffBound);
  H.i64(S.ConstBound);
  H.byte(S.ProximityIncludesInput ? 1 : 0);
  H.byte(S.SerializeSccs ? 1 : 0);
  H.byte(S.PreferOriginalOrder ? 1 : 0);
  H.byte(S.UseFeautrierFallback ? 1 : 0);
  H.u32(S.MaxDims);
}

Fingerprint service::fingerprintKernel(const Kernel &K) {
  FingerprintBuilder H;
  H.str("pinj-kernel-v1"); // Format tag: bump when the hashed shape changes.
  H.u64(K.numParams());
  H.u64(K.Tensors.size());
  for (const Tensor &T : K.Tensors) {
    // Name erased; identity is the tensor's position (Access::TensorId).
    H.u32(T.ElemBytes);
    H.u64(T.Shape.size());
    for (Int S : T.Shape)
      H.i64(S);
  }
  H.u64(K.Stmts.size());
  for (const Statement &S : K.Stmts) {
    // Statement/iterator names erased; order preserved by stream order.
    H.byte(static_cast<std::uint8_t>(S.Kind));
    H.u64(S.Extents.size());
    for (Int E : S.Extents)
      H.i64(E);
    H.u64(S.OrigBeta.size());
    for (Int B : S.OrigBeta)
      H.i64(B);
    hashAccess(H, S.Write);
    H.u64(S.Reads.size());
    for (const Access &R : S.Reads)
      hashAccess(H, R);
  }
  return H.get();
}

Fingerprint service::fingerprintInfluenceTree(const InfluenceTree &T) {
  FingerprintBuilder H;
  H.str("pinj-tree-v1"); // Format tag: bump when the hashed shape changes.
  hashNode(H, T.root());
  return H.get();
}

std::uint64_t service::fingerprintOptions(const PipelineOptions &O) {
  FingerprintBuilder H;
  // v3: the GPU machine-model fields were replaced by the canonical
  // target section (kind + every named constant) — a null Target hashes
  // as the gpu-analytic backend over O.Gpu, so `--gpu=v100`,
  // `--target=v100` and the defaults all share cache entries, while any
  // other backend or calibrated constant set never aliases them.
  H.str("pinj-options-v3");
  hashSchedulerOptions(H, O.Sched);
  hashBudget(H, O.Sched.Budget);
  // InfluenceOptions.
  H.f64(O.Influence.Weights.W1);
  H.f64(O.Influence.Weights.W2);
  H.f64(O.Influence.Weights.W3);
  H.f64(O.Influence.Weights.W4);
  H.f64(O.Influence.Weights.W5);
  H.byte(O.Influence.Weights.PaperFormulaThreadTerm ? 1 : 0);
  H.i64(O.Influence.ThreadLimit);
  H.u32(O.Influence.MaxScenarios);
  H.u32(O.Influence.MaxInnerDims);
  H.u32(O.Influence.MaxVectorWidth);
  // GPU mapping + backend target (the machine model feeds vector-width
  // choices through the influence cost, and the target scores every
  // configuration, so both are compilation-relevant). The canonical
  // form covers the kind and every named constant; the display name is
  // deliberately absent (identity is what the target computes).
  H.i64(O.Mapping.MaxThreadsPerBlock);
  H.str(O.Target ? O.Target->kind()
                 : std::string(target::GpuAnalyticKind));
  std::vector<target::TargetParam> Params =
      O.Target ? O.Target->params() : target::gpuAnalyticParams(O.Gpu);
  H.u64(Params.size());
  for (const target::TargetParam &P : Params) {
    H.str(P.Name);
    H.f64(P.Value);
  }
  H.byte(O.Validate ? 1 : 0);
  hashBudget(H, O.Budget);
  return H.get().Hi ^ (H.get().Lo * FnvPrime);
}

Fingerprint service::fingerprintRequest(const Kernel &K,
                                        const PipelineOptions &Options) {
  FingerprintBuilder H;
  H.str("pinj-request-v1");
  Fingerprint KF = fingerprintKernel(K);
  H.u64(KF.Hi);
  H.u64(KF.Lo);
  H.u64(fingerprintOptions(Options));
  return H.get();
}
