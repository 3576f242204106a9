//===- exec/DateSorter.cpp ------------------------------------------------===//

#include "exec/DateSorter.h"

#include "support/Status.h"

#include <algorithm>
#include <bit>

using namespace pinj;

namespace {

using U64 = std::uint64_t;
using U128 = unsigned __int128;
using I128 = __int128;

/// Calls \p Callback(Iters) for every point of the box \p Extents in
/// row-major order; \p Iters is scratch of Extents.size() entries.
template <typename Fn>
void forEachPoint(const std::vector<Int> &Extents, Int *Iters,
                  Fn &&Callback) {
  unsigned NumIters = Extents.size();
  for (unsigned D = 0; D != NumIters; ++D) {
    if (Extents[D] <= 0)
      return;
    Iters[D] = 0;
  }
  for (;;) {
    Callback(static_cast<const Int *>(Iters));
    unsigned D = NumIters;
    while (D-- > 0) {
      if (++Iters[D] < Extents[D])
        break;
      Iters[D] = 0;
    }
    if (D > NumIters)
      return;
  }
}

} // namespace

bool DateSorter::sort(const CompiledKernel &Code, const Schedule &S) {
  this->Code = &Code;
  const Kernel &K = Code.kernel();
  // Each dimension's smallest date and range over the instances.
  unsigned NumDims = S.numDims();
  std::vector<Int> Lo(NumDims, 0);
  std::vector<U128> Range(NumDims, 1);
  for (unsigned D = 0; D != NumDims; ++D) {
    bool Empty = true;
    I128 DimLo = 0, DimHi = 0;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      if (Code.firstInstance(Stmt) == Code.firstInstance(Stmt + 1))
        continue;
      const IntVector &Row = S.Transforms[Stmt].row(D);
      const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
      I128 L = Row.back(), H = Row.back();
      for (unsigned I = 0, NI = Extents.size(); I != NI; ++I) {
        I128 Term = static_cast<I128>(Row[I]) * (Extents[I] - 1);
        (Term < 0 ? L : H) += Term;
      }
      DimLo = Empty ? L : std::min(DimLo, L);
      DimHi = Empty ? H : std::max(DimHi, H);
      Empty = false;
    }
    Lo[D] = static_cast<Int>(DimLo);
    Range[D] = static_cast<U128>(DimHi - DimLo) + 1;
  }

  // Pack the non-constant dimensions into keys, most significant first.
  const U128 KeySpace = static_cast<U128>(1) << 64;
  std::vector<std::vector<KeyDim>> Groups;
  std::vector<U128> GroupSpace;
  for (unsigned D = 0; D != NumDims; ++D) {
    if (Range[D] == 1)
      continue;
    if (Groups.empty() || Range[D] > KeySpace / GroupSpace.back()) {
      Groups.emplace_back();
      GroupSpace.push_back(1);
    }
    for (KeyDim &Prev : Groups.back())
      Prev.Radix *= static_cast<U64>(Range[D]);
    Groups.back().push_back({D, 1});
    GroupSpace.back() *= Range[D];
  }

  Identity = true;
  for (unsigned G = Groups.size(); G-- > 0;) {
    fillKeys(S, Lo, Groups[G].data(), Groups[G].data() + Groups[G].size());
    sortBy(static_cast<U64>(GroupSpace[G] - 1));
  }
  return !Identity;
}

void DateSorter::fillKeys(const Schedule &S, const std::vector<Int> &Lo,
                          const KeyDim *First, const KeyDim *Last) {
  const Kernel &K = Code->kernel();
  Keys.resize(Code->numInstances());
  std::vector<Int> Iters(Code->maxIters());
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
    const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
    unsigned NumIters = Extents.size();
    U64 Key = 0;
    KeyCoefs.assign(NumIters, 0);
    for (const KeyDim *KD = First; KD != Last; ++KD) {
      const IntVector &Row = S.Transforms[Stmt].row(KD->Dim);
      Key += (static_cast<U64>(Row.back()) - static_cast<U64>(Lo[KD->Dim])) *
             KD->Radix;
      for (unsigned I = 0; I != NumIters; ++I)
        KeyCoefs[I] += static_cast<U64>(Row[I]) * KD->Radix;
    }
    U64 *Out = Keys.data() + Code->firstInstance(Stmt);
    forEachPoint(Extents, Iters.data(), [&](const Int *It) {
      U64 Sum = Key;
      for (unsigned I = 0; I != NumIters; ++I)
        Sum += KeyCoefs[I] * static_cast<U64>(It[I]);
      *Out++ = Sum;
    });
  }
}

void DateSorter::sortBy(U64 MaxKey) {
  std::size_t N = Keys.size();
  if (Identity) {
    if (std::is_sorted(Keys.begin(), Keys.end()))
      return;
    Order.resize(N);
    for (std::size_t I = 0; I != N; ++I)
      Order[I] = I;
    Identity = false;
  } else {
    // Keys are in enumeration order; line them up with the current order.
    KeysTmp.resize(N);
    for (std::size_t I = 0; I != N; ++I)
      KeysTmp[I] = Keys[Order[I]];
    Keys.swap(KeysTmp);
  }
  OrderTmp.resize(N);
  KeysTmp.resize(N);

  // One counting pass when the key range is small against the instance
  // count, else least-significant-digit passes of at most 16 bits.
  unsigned Passes = 1, DigitBits = std::bit_width(MaxKey);
  if (MaxKey >= std::max<U64>(4 * N, 1u << 16)) {
    Passes = (DigitBits + 15) / 16;
    DigitBits = (DigitBits + Passes - 1) / Passes;
  }
  for (unsigned P = 0; P != Passes; ++P) {
    unsigned Shift = P * DigitBits;
    U64 Mask = Passes == 1 ? ~U64(0) : (U64(1) << DigitBits) - 1;
    U64 Buckets = Passes == 1 ? MaxKey + 1 : Mask + 1;
    Counts.assign(Buckets + 1, 0);
    for (std::size_t I = 0; I != N; ++I)
      ++Counts[((Keys[I] >> Shift) & Mask) + 1];
    for (U64 B = 1; B < Buckets; ++B)
      Counts[B] += Counts[B - 1];
    bool CarryKeys = P + 1 != Passes;
    for (std::size_t I = 0; I != N; ++I) {
      std::uint32_t &Slot = Counts[(Keys[I] >> Shift) & Mask];
      OrderTmp[Slot] = Order[I];
      if (CarryKeys)
        KeysTmp[Slot] = Keys[I];
      ++Slot;
    }
    Order.swap(OrderTmp);
    if (CarryKeys)
      Keys.swap(KeysTmp);
  }
}

void DateSorter::run(double *const *Data) const {
  if (Identity)
    return Code->run(Data);
  const Kernel &K = Code->kernel();
  std::vector<Int> Iters(Code->maxIters(), 0);
  U64 Offsets[4];
  unsigned Stmt = 0;
  for (std::uint32_t Index : Order) {
    while (Index < Code->firstInstance(Stmt))
      --Stmt;
    while (Index >= Code->firstInstance(Stmt + 1))
      ++Stmt;
    // Decode the row-major iterators from the instance number; there are
    // fewer than 2^32 instances, so 32-bit division suffices.
    std::uint32_t Local = Index - Code->firstInstance(Stmt);
    const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
    for (unsigned D = Extents.size(); D-- > 0;) {
      std::uint32_t Extent = Extents[D];
      Iters[D] = Local % Extent;
      Local /= Extent;
    }
    for (unsigned A = 0, E = Code->numAccesses(Stmt); A != E; ++A)
      Offsets[A] = Code->offset(Stmt, A, Iters.data());
    Code->executeAt(Stmt, Offsets, Data);
  }
}

void pinj::runOriginal(const Kernel &K, ExecBuffers &Buffers) {
  CompiledKernel(K).run(Buffers);
}

void pinj::runScheduled(const Kernel &K, const Schedule &S,
                        ExecBuffers &Buffers) {
  CompiledKernel Code(K);
  DateOrderExecutor Executor;
  try {
    Executor.plan(Code, S);
  } catch (const RecoverableError &E) {
    if (E.status().message() != UnwalkableSchedule)
      throw;
    // Every check but the walk passed, as DateSorter requires.
    DateSorter Sorter;
    Sorter.sort(Code, S);
    Sorter.run(Buffers);
    return;
  }
  Executor.run(Buffers);
}

bool pinj::buffersAlmostEqual(const ExecBuffers &A, const ExecBuffers &B,
                              double Tolerance) {
  if (A.Tensors.size() != B.Tensors.size())
    return false;
  for (std::size_t T = 0, E = A.Tensors.size(); T != E; ++T)
    if (!tensorsAlmostEqual(A.Tensors[T], B.Tensors[T], Tolerance))
      return false;
  return true;
}
