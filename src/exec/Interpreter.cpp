//===- exec/Interpreter.cpp -----------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/FailPoint.h"
#include "support/Status.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

using namespace pinj;

namespace {

using U64 = std::uint64_t;
using U128 = unsigned __int128;
using I128 = __int128;

[[noreturn]] void interpretError(const char *Message) {
  raiseError(StatusCode::Internal, "exec.interpret", Message);
}

/// Smallest and largest value of the affine row \p Row (iterator columns
/// first, constant last; parameter columns are not executable) over the
/// iteration box \p Extents: each term takes its extremes at a corner.
std::pair<I128, I128> rowRange(const IntVector &Row,
                               const std::vector<Int> &Extents) {
  I128 Lo = Row.back(), Hi = Row.back();
  for (unsigned I = 0, E = Extents.size(); I != E; ++I) {
    I128 Term = static_cast<I128>(Row[I]) * (Extents[I] - 1);
    (Term < 0 ? Lo : Hi) += Term;
  }
  return {Lo, Hi};
}

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

/// Orders a compiled kernel's instances by a schedule's dates, reusing its
/// buffers across schedules. Each dimension's dates are shifted to start
/// at zero and consecutive dimensions are packed into mixed-radix 64-bit
/// keys (a new key starts whenever the product of the dimensions' ranges
/// would pass 2^64; constant dimensions are dropped). Keys are affine in
/// the iterators and computed with wrapping arithmetic, which is exact
/// because every true key fits in 64 bits. The keys are
/// sorted least significant first by stable counting/radix passes that
/// start from the enumeration order, so ties keep the (statement,
/// iterators) order.
class DateSorter {
public:
  /// \returns the instance numbers in date order, or null when the
  /// enumeration order already is.
  const std::uint32_t *order(const CompiledKernel &Code, const Schedule &S);

private:
  struct KeyDim {
    unsigned Dim;
    U64 Radix; ///< Multiplier of the dimension's shifted date.
  };

  void fillKeys(const CompiledKernel &Code, const Schedule &S,
                const KeyDim *First, const KeyDim *Last);
  void sortBy(U64 MaxKey);

  std::vector<Int> DimLo;
  std::vector<U64> Keys, KeysTmp, KeyCoefs;
  std::vector<std::uint32_t> Order, OrderTmp, Counts;
  bool Identity = true;
};

const std::uint32_t *DateSorter::order(const CompiledKernel &Code,
                                       const Schedule &S) {
  const Kernel &K = Code.kernel();
  if (!S.compatibleWith(K))
    interpretError("schedule does not match the kernel");
  U64 N = Code.numInstances();
  if (N > std::numeric_limits<std::uint32_t>::max())
    interpretError("too many statement instances to interpret");

  // Date range of every dimension over all instances.
  unsigned NumDims = S.numDims();
  std::vector<U128> Range(NumDims, 1);
  DimLo.assign(NumDims, 0);
  for (unsigned D = 0; D != NumDims; ++D) {
    I128 Lo = 0, Hi = 0;
    bool Empty = true;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      if (Code.firstInstance(Stmt) == Code.firstInstance(Stmt + 1))
        continue;
      auto [L, H] = rowRange(S.Transforms[Stmt].row(D), K.Stmts[Stmt].Extents);
      Lo = Empty ? L : std::min(Lo, L);
      Hi = Empty ? H : std::max(Hi, H);
      Empty = false;
    }
    if (Lo < std::numeric_limits<Int>::min() ||
        Hi > std::numeric_limits<Int>::max())
      overflowError("schedule date overflows 64 bits");
    DimLo[D] = static_cast<Int>(Lo);
    Range[D] = static_cast<U128>(Hi - Lo) + 1;
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
    fillKeys(Code, S, Groups[G].data(), Groups[G].data() + Groups[G].size());
    sortBy(static_cast<U64>(GroupSpace[G] - 1));
  }
  return Identity ? nullptr : Order.data();
}

void DateSorter::fillKeys(const CompiledKernel &Code, const Schedule &S,
                          const KeyDim *First, const KeyDim *Last) {
  const Kernel &K = Code.kernel();
  Keys.resize(Code.numInstances());
  std::vector<Int> Iters(Code.maxIters());
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
    const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
    unsigned NumIters = Extents.size();
    U64 Key = 0;
    KeyCoefs.assign(NumIters, 0);
    for (const KeyDim *KD = First; KD != Last; ++KD) {
      const IntVector &Row = S.Transforms[Stmt].row(KD->Dim);
      Key += (static_cast<U64>(Row.back()) - static_cast<U64>(DimLo[KD->Dim])) *
             KD->Radix;
      for (unsigned I = 0; I != NumIters; ++I)
        KeyCoefs[I] += static_cast<U64>(Row[I]) * KD->Radix;
    }
    U64 *Out = Keys.data() + Code.firstInstance(Stmt);
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

/// Fills \p Buffers with makeInputs' pattern, reusing their storage.
void fillInputs(const Kernel &K, unsigned Seed, ExecBuffers &Buffers) {
  unsigned State = Seed * 2654435761u + 12345u;
  Buffers.Tensors.resize(K.Tensors.size());
  for (unsigned T = 0, E = K.Tensors.size(); T != E; ++T) {
    std::vector<double> &Data = Buffers.Tensors[T];
    Data.resize(K.Tensors[T].numElements());
    for (double &V : Data) {
      State = State * 1664525u + 1013904223u;
      V = static_cast<double>((State >> 8) % 2048) / 256.0 - 4.0;
    }
  }
}

} // namespace

ExecBuffers pinj::makeInputs(const Kernel &K, unsigned Seed) {
  ExecBuffers Buffers;
  fillInputs(K, Seed, Buffers);
  return Buffers;
}

double pinj::evaluateOp(OpKind Kind, const double *R) {
  switch (Kind) {
  case OpKind::Assign:
    return R[0];
  case OpKind::Add:
    return R[0] + R[1];
  case OpKind::Sub:
    return R[0] - R[1];
  case OpKind::Mul:
    return R[0] * R[1];
  case OpKind::Div:
    return R[0] / R[1];
  case OpKind::Max:
    return std::max(R[0], R[1]);
  case OpKind::Min:
    return std::min(R[0], R[1]);
  case OpKind::Relu:
    return std::max(R[0], 0.0);
  case OpKind::Exp:
    return std::exp(R[0]);
  case OpKind::Rsqrt:
    return 1.0 / std::sqrt(std::abs(R[0]) + 1.0);
  case OpKind::Neg:
    return -R[0];
  case OpKind::Fma:
    return R[0] + R[1] * R[2];
  case OpKind::MulSub:
    return (R[0] - R[1]) * R[2];
  }
  fatalError("unknown op kind");
}

CompiledKernel::CompiledKernel(const Kernel &K) : K(&K) {
  Begin.push_back(0);
  for (const Statement &St : K.Stmts) {
    unsigned NumIters = St.numIters();
    MaxIters = std::max(MaxIters, NumIters);
    if (St.Reads.size() > 3)
      interpretError("statement has more than three operands");
    U64 Count = 1;
    for (Int E : St.Extents)
      if (__builtin_mul_overflow(Count, static_cast<U64>(std::max<Int>(E, 0)),
                                 &Count))
        interpretError("too many statement instances to interpret");
    Stmts.push_back({St.Kind, NumIters, static_cast<unsigned>(St.Reads.size()),
                     static_cast<unsigned>(Accesses.size())});
    for (const Access *A : St.allAccesses()) {
      if (A->TensorId >= K.Tensors.size() ||
          A->Indices.size() != K.Tensors[A->TensorId].Shape.size())
        interpretError("access does not match its tensor");
      const Tensor &T = K.Tensors[A->TensorId];
      std::vector<Int> Strides = T.strides();
      FlatAccess Flat{A->TensorId, 0, static_cast<unsigned>(Coefs.size())};
      Coefs.resize(Coefs.size() + NumIters, 0);
      for (unsigned D = 0, E = A->Indices.size(); D != E; ++D) {
        const IntVector &Row = A->Indices[D];
        auto [Lo, Hi] = rowRange(Row, St.Extents);
        if (Count != 0 && (Lo < 0 || Hi >= T.Shape[D]))
          interpretError("access out of bounds during interpretation");
        U64 Stride = Strides[D];
        Flat.Base += static_cast<U64>(Row.back()) * Stride;
        for (unsigned I = 0; I != NumIters; ++I)
          Coefs[Flat.FirstCoef + I] += static_cast<U64>(Row[I]) * Stride;
      }
      Accesses.push_back(Flat);
    }
    if (__builtin_add_overflow(Begin.back(), Count, &Count))
      interpretError("too many statement instances to interpret");
    Begin.push_back(Count);
  }
}

std::uint64_t CompiledKernel::offset(const FlatAccess &A, const FlatStmt &S,
                                     const Int *Iters) const {
  U64 Offset = A.Base;
  const U64 *C = Coefs.data() + A.FirstCoef;
  for (unsigned I = 0; I != S.NumIters; ++I)
    Offset += C[I] * static_cast<U64>(Iters[I]);
  return Offset;
}

void CompiledKernel::execute(unsigned Stmt, const Int *Iters,
                             double *const *Data) const {
  const FlatStmt &S = Stmts[Stmt];
  const FlatAccess *A = Accesses.data() + S.FirstAccess;
  double Reads[3] = {0, 0, 0};
  for (unsigned R = 0; R != S.NumReads; ++R)
    Reads[R] = Data[A[R + 1].Tensor][offset(A[R + 1], S, Iters)];
  Data[A[0].Tensor][offset(A[0], S, Iters)] = evaluateOp(S.Kind, Reads);
}

void CompiledKernel::run(const std::uint32_t *Order,
                         ExecBuffers &Buffers) const {
  std::vector<double *> Data = tensorData(Buffers);
  std::vector<Int> Iters(MaxIters, 0);
  if (!Order) {
    for (unsigned Stmt = 0, E = Stmts.size(); Stmt != E; ++Stmt)
      forEachPoint(K->Stmts[Stmt].Extents, Iters.data(), [&](const Int *It) {
        execute(Stmt, It, Data.data());
      });
    return;
  }
  unsigned Stmt = 0;
  for (U64 I = 0, N = numInstances(); I != N; ++I) {
    std::uint32_t Index = Order[I];
    while (Index < Begin[Stmt])
      --Stmt;
    while (Index >= Begin[Stmt + 1])
      ++Stmt;
    // Decode the row-major iterators from the instance number; a sorted
    // order has fewer than 2^32 instances, so 32-bit division suffices.
    std::uint32_t Local = Index - Begin[Stmt];
    const std::vector<Int> &Extents = K->Stmts[Stmt].Extents;
    for (unsigned D = Extents.size(); D-- > 0;) {
      std::uint32_t Extent = Extents[D];
      Iters[D] = Local % Extent;
      Local /= Extent;
    }
    execute(Stmt, Iters.data(), Data.data());
  }
}

std::vector<double *> CompiledKernel::tensorData(ExecBuffers &Buffers) {
  std::vector<double *> Data;
  for (std::vector<double> &T : Buffers.Tensors)
    Data.push_back(T.data());
  return Data;
}

void pinj::runOriginal(const Kernel &K, ExecBuffers &Buffers) {
  CompiledKernel(K).run(nullptr, Buffers);
}

void pinj::runScheduled(const Kernel &K, const Schedule &S,
                        ExecBuffers &Buffers) {
  CompiledKernel Code(K);
  DateSorter Sorter;
  Code.run(Sorter.order(Code, S), Buffers);
}

bool pinj::buffersAlmostEqual(const ExecBuffers &A, const ExecBuffers &B,
                              double Tolerance) {
  if (A.Tensors.size() != B.Tensors.size())
    return false;
  for (unsigned T = 0, E = A.Tensors.size(); T != E; ++T) {
    if (A.Tensors[T].size() != B.Tensors[T].size())
      return false;
    for (unsigned I = 0, N = A.Tensors[T].size(); I != N; ++I) {
      double X = A.Tensors[T][I], Y = B.Tensors[T][I];
      double Scale = std::max({1.0, std::abs(X), std::abs(Y)});
      if (std::abs(X - Y) > Tolerance * Scale)
        return false;
    }
  }
  return true;
}

struct ScheduleValidator::State {
  CompiledKernel Code;
  ExecBuffers Reference, Transformed;
  DateSorter Sorter;

  State(const Kernel &K, unsigned Seed)
      : Code(K), Reference(makeInputs(K, Seed)) {
    Code.run(nullptr, Reference);
  }
};

ScheduleValidator::ScheduleValidator(const Kernel &K, unsigned Seed)
    : K(K), Seed(Seed) {}

ScheduleValidator::~ScheduleValidator() = default;

bool ScheduleValidator::check(const Schedule &S) {
  failpoint::hit("exec.interpret");
  if (!St)
    St = std::make_unique<State>(K, Seed);
  fillInputs(K, Seed, St->Transformed);
  St->Code.run(St->Sorter.order(St->Code, S), St->Transformed);
  return buffersAlmostEqual(St->Reference, St->Transformed);
}

bool pinj::scheduleIsSemanticallyEqual(const Kernel &K, const Schedule &S,
                                       unsigned Seed) {
  return ScheduleValidator(K, Seed).check(S);
}
