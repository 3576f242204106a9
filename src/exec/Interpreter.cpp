//===- exec/Interpreter.cpp -----------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/FailPoint.h"
#include "support/Status.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

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

/// Every schedule dimension's smallest date and range (largest - smallest
/// + 1) over all instances of a compiled kernel.
struct DateRanges {
  std::vector<Int> Lo;
  std::vector<U128> Range;
};

/// Measures \p S's dates over \p Code. Raises exec.interpret when \p S
/// does not match the kernel or the kernel has 2^32 or more instances
/// (more than a validation run can afford, and what the sorted-order
/// oracle can number), Overflow when a date leaves 64 bits.
DateRanges measureDates(const CompiledKernel &Code, const Schedule &S) {
  const Kernel &K = Code.kernel();
  if (!S.compatibleWith(K))
    interpretError("schedule does not match the kernel");
  if (Code.numInstances() > std::numeric_limits<std::uint32_t>::max())
    interpretError("too many statement instances to interpret");
  unsigned NumDims = S.numDims();
  DateRanges Dates{std::vector<Int>(NumDims, 0), std::vector<U128>(NumDims, 1)};
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
    Dates.Lo[D] = static_cast<Int>(Lo);
    Dates.Range[D] = static_cast<U128>(Hi - Lo) + 1;
  }
  return Dates;
}

/// Orders a compiled kernel's instances by a schedule's dates without
/// sorting. Each dimension's dates are shifted to start at zero and the
/// non-constant dimensions are packed, most significant first, into one
/// mixed-radix 128-bit key, so a statement's key is affine in its
/// iterators: b + sum(c_i * it_i). Its loops are ordered by |c_i|, largest
/// first, with the zero-coefficient ("tie") iterators innermost in their
/// original order. The statement is walkable when every nonzero |c_p|
/// exceeds the key span sum(|c_q| * (extent_q - 1)) of the loops inside
/// it: walking the loops outermost first, each in the direction of its
/// coefficient's sign, then yields exactly the (key, iterators) order.
///
/// Statements with the same walk and no tie loops, whose smallest keys
/// span less than the walk's smallest key step, share one odometer
/// ("lockstep"): at each point the members run in (key, statement) order,
/// and every key of the next point is larger than any of this one. The
/// groups' streams are then merged by (key, statement), which is the
/// (date, statement, iterators) order. A schedule with a statement that
/// is not walkable (a skewed row), or whose packed dates need more than
/// 128 bits, cannot be walked.
///
/// The walk keeps every member's flat access offsets rather than its
/// iterators: a loop step adds one precomputed move per access, which
/// also rewinds the loops inside it. A group of one statement runs its
/// innermost loop as rows (CompiledKernel::executeRow); in the merge, a
/// row runs up to the next group's head.
class DateWalker {
public:
  /// Plans the walk of \p S over \p Code. \returns false when the
  /// schedule cannot be walked.
  bool plan(const CompiledKernel &Code, const Schedule &S,
            const DateRanges &Dates);

  /// Plans the enumeration order: each statement's loops row-major, one
  /// statement after another.
  void planEnumeration(const CompiledKernel &Code);

  /// True when the planned order is the enumeration order: every
  /// statement walks its original loops ascending, and the statements'
  /// key ranges are nondecreasing in statement order. plan() then
  /// prepares no run.
  bool identity() const { return Identity; }

  /// Executes every instance in the planned order.
  void run(const CompiledKernel &Code, double *const *Data);

private:
  /// Access offsets kept per member: the write and up to three reads.
  static constexpr unsigned Slots = 4;

  struct Loop {
    unsigned Iter; ///< The iterator it runs.
    Int Extent;
    bool Down;  ///< Runs from Extent - 1 to 0.
    U128 Step;  ///< |c|: 0 for a tie loop.
    U128 Carry; ///< Key increase when this loop steps and the inner reset.
  };
  struct StmtWalk {
    std::vector<Loop> Loops; ///< Outermost first.
    U128 First = 0;          ///< The smallest key, where the walk starts.
    U128 Last = 0;           ///< The largest key.
    U128 Gap = ~U128(0);     ///< The smallest key step between points.
    bool Ties = false;       ///< Has a tie loop.
  };
  struct Member {
    unsigned Stmt;
    U128 Delta; ///< Key offset from the group's first member.
  };
  struct Group {
    unsigned FirstLoop, NumLoops;
    unsigned FirstMember, NumMembers;
    unsigned FirstMove; ///< Moves[FirstMove + ((P * NumMembers) + M) * Slots].
    U128 FirstKey;
  };
  /// A group's position in its walk: the point's key for the first
  /// member, and the member to run next.
  struct Cursor {
    unsigned Group;
    U128 Key;
    unsigned Next = 0;
  };

  static bool sameWalk(const StmtWalk &A, const StmtWalk &B);
  void addGroup(const CompiledKernel &Code, const std::vector<unsigned> &Stmts);
  bool advance(Cursor &C);
  /// True when the cursor's group runs rows: one member, some loop.
  bool rows(const Cursor &C) const {
    const Group &G = Groups[C.Group];
    return G.NumMembers == 1 && G.NumLoops;
  }
  U64 stretch(const Cursor &C, std::pair<U128, unsigned> Limit) const;
  void runRow(Cursor &C, U64 N, const CompiledKernel &Code,
              double *const *Data);
  void drain(Cursor &C, const CompiledKernel &Code, double *const *Data);

  std::vector<StmtWalk> Walks;
  std::vector<Loop> Loops;
  std::vector<Member> Members;
  std::vector<U64> StartOffsets; ///< Slots per member.
  /// Per group loop and member, the offset change of each access when the
  /// loop steps and the loops inside it rewind.
  std::vector<U64> Moves;
  std::vector<Group> Groups;
  bool Identity = true;

  // Run scratch.
  std::vector<U64> Offsets;
  std::vector<Int> Counts; ///< Steps taken by every group loop.
};

bool DateWalker::plan(const CompiledKernel &Code, const Schedule &S,
                      const DateRanges &Dates) {
  const Kernel &K = Code.kernel();
  unsigned NumDims = S.numDims();
  // Mixed-radix weights of the non-constant dimensions; the largest key,
  // Space - 1, must fit 128 bits.
  std::vector<U128> Radix(NumDims, 0);
  U128 Space = 1;
  for (unsigned D = NumDims; D-- > 0;) {
    if (Dates.Range[D] == 1)
      continue;
    Radix[D] = Space;
    if (__builtin_mul_overflow(Space, Dates.Range[D], &Space))
      return false;
  }

  // Each statement's walk. Keys are computed with wrapping arithmetic,
  // which is exact because every true key lies in [0, Space). The sign
  // of a coefficient is that of its first nonzero row entry: the later
  // dimensions' terms sum to less than that entry's radix.
  unsigned NumStmts = K.Stmts.size();
  Walks.assign(NumStmts, StmtWalk());
  for (unsigned Stmt = 0; Stmt != NumStmts; ++Stmt) {
    if (Code.firstInstance(Stmt) == Code.firstInstance(Stmt + 1))
      continue;
    const IntMatrix &T = S.Transforms[Stmt];
    const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
    StmtWalk &W = Walks[Stmt];
    unsigned Const = T.numCols() - 1;
    for (unsigned D = 0; D != NumDims; ++D)
      if (Radix[D])
        W.First += static_cast<U128>(static_cast<U64>(T.at(D, Const)) -
                                     static_cast<U64>(Dates.Lo[D])) *
                   Radix[D];
    for (unsigned I = 0, E = Extents.size(); I != E; ++I) {
      if (Extents[I] == 1)
        continue;
      U128 C = 0;
      Int Sign = 0;
      for (unsigned D = 0; D != NumDims; ++D) {
        Int A = T.at(D, I);
        if (!Radix[D] || !A)
          continue;
        if (!Sign)
          Sign = A;
        C += static_cast<U128>(static_cast<I128>(A)) * Radix[D];
      }
      if (Sign < 0) {
        C = -C;
        W.First -= C * static_cast<U128>(Extents[I] - 1);
      }
      W.Loops.push_back({I, Extents[I], Sign < 0, C, 0});
      W.Ties |= C == 0;
    }
    std::stable_sort(
        W.Loops.begin(), W.Loops.end(),
        [](const Loop &A, const Loop &B) { return A.Step > B.Step; });
    U128 Span = 0;
    for (unsigned P = W.Loops.size(); P-- > 0;) {
      Loop &L = W.Loops[P];
      if (L.Step == 0)
        continue;
      if (L.Step <= Span)
        return false;
      L.Carry = L.Step - Span;
      W.Gap = std::min(W.Gap, L.Carry);
      Span += L.Step * static_cast<U128>(L.Extent - 1);
    }
    W.Last = W.First + Span;
  }

  Identity = true;
  const StmtWalk *Prev = nullptr;
  for (unsigned Stmt = 0; Stmt != NumStmts; ++Stmt) {
    if (Code.firstInstance(Stmt) == Code.firstInstance(Stmt + 1))
      continue;
    const StmtWalk &W = Walks[Stmt];
    for (unsigned P = 0, E = W.Loops.size(); P != E; ++P)
      if (W.Loops[P].Down || (P && W.Loops[P].Iter < W.Loops[P - 1].Iter))
        Identity = false;
    if (Prev && W.First < Prev->Last)
      Identity = false;
    Prev = &W;
  }
  if (Identity)
    return true;

  // Lockstep groups, filled in (smallest key, statement) order: a
  // statement joins the first group with its walk whose first member's
  // smallest key is less than one key step below its own.
  std::vector<unsigned> ByKey;
  for (unsigned Stmt = 0; Stmt != NumStmts; ++Stmt)
    if (Code.firstInstance(Stmt) != Code.firstInstance(Stmt + 1))
      ByKey.push_back(Stmt);
  std::stable_sort(ByKey.begin(), ByKey.end(), [&](unsigned A, unsigned B) {
    return Walks[A].First < Walks[B].First;
  });
  std::vector<std::vector<unsigned>> Lockstep;
  for (unsigned Stmt : ByKey) {
    const StmtWalk &W = Walks[Stmt];
    auto Joins = [&](const std::vector<unsigned> &Group) {
      const StmtWalk &Lead = Walks[Group.front()];
      return sameWalk(Lead, W) && W.First - Lead.First < Lead.Gap;
    };
    auto It = std::find_if(Lockstep.begin(), Lockstep.end(), Joins);
    if (It == Lockstep.end())
      Lockstep.push_back({Stmt});
    else
      It->push_back(Stmt);
  }

  Loops.clear();
  Members.clear();
  StartOffsets.clear();
  Moves.clear();
  Groups.clear();
  for (const std::vector<unsigned> &Stmts : Lockstep)
    addGroup(Code, Stmts);
  return true;
}

void DateWalker::planEnumeration(const CompiledKernel &Code) {
  const Kernel &K = Code.kernel();
  Identity = true;
  Walks.assign(K.Stmts.size(), StmtWalk());
  Loops.clear();
  Members.clear();
  StartOffsets.clear();
  Moves.clear();
  Groups.clear();
  for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
    if (Code.firstInstance(Stmt) == Code.firstInstance(Stmt + 1))
      continue;
    const std::vector<Int> &Extents = K.Stmts[Stmt].Extents;
    for (unsigned I = 0, NI = Extents.size(); I != NI; ++I)
      if (Extents[I] != 1)
        Walks[Stmt].Loops.push_back({I, Extents[I], false, 0, 0});
    addGroup(Code, {Stmt});
  }
}

bool DateWalker::sameWalk(const StmtWalk &A, const StmtWalk &B) {
  if (A.Ties || B.Ties || A.Loops.size() != B.Loops.size())
    return false;
  for (unsigned P = 0, E = A.Loops.size(); P != E; ++P) {
    const Loop &X = A.Loops[P], &Y = B.Loops[P];
    if (X.Extent != Y.Extent || X.Down != Y.Down || X.Step != Y.Step)
      return false;
  }
  return true;
}

/// Appends the group of \p Stmts, which share one walk: its loops, its
/// members' offsets at the walk's first point, and their moves. Offsets
/// wrap, which is exact because every point's offsets are in bounds.
void DateWalker::addGroup(const CompiledKernel &Code,
                          const std::vector<unsigned> &Stmts) {
  const StmtWalk &Lead = Walks[Stmts.front()];
  unsigned NumLoops = Lead.Loops.size(), NumMembers = Stmts.size();
  Groups.push_back({static_cast<unsigned>(Loops.size()), NumLoops,
                    static_cast<unsigned>(Members.size()), NumMembers,
                    static_cast<unsigned>(Moves.size()), Lead.First});
  Loops.insert(Loops.end(), Lead.Loops.begin(), Lead.Loops.end());
  std::size_t FirstMove = Moves.size();
  Moves.resize(FirstMove + std::size_t(NumLoops) * NumMembers * Slots, 0);
  std::vector<Int> Start(Code.maxIters(), 0);
  for (unsigned M = 0; M != NumMembers; ++M) {
    unsigned Stmt = Stmts[M];
    const StmtWalk &W = Walks[Stmt];
    Members.push_back({Stmt, W.First - Lead.First});
    std::fill(Start.begin(), Start.end(), 0);
    for (const Loop &L : W.Loops)
      Start[L.Iter] = L.Down ? L.Extent - 1 : 0;
    for (unsigned A = 0; A != Slots; ++A) {
      bool Used = A < Code.numAccesses(Stmt);
      StartOffsets.push_back(Used ? Code.offset(Stmt, A, Start.data()) : 0);
      if (!Used)
        continue;
      U64 Inner = 0; // Offset span of the loops inside, walked forward.
      for (unsigned P = NumLoops; P-- > 0;) {
        const Loop &L = W.Loops[P];
        U64 Stride = Code.stride(Stmt, A, L.Iter);
        if (L.Down)
          Stride = -Stride;
        Moves[FirstMove + (std::size_t(P) * NumMembers + M) * Slots + A] =
            Stride - Inner;
        Inner += Stride * static_cast<U64>(L.Extent - 1);
      }
    }
  }
}

/// Moves the cursor's group to its walk's next point; \returns false
/// when the walk is done.
bool DateWalker::advance(Cursor &C) {
  const Group &G = Groups[C.Group];
  Int *Count = Counts.data() + G.FirstLoop;
  for (unsigned P = G.NumLoops; P-- > 0;) {
    const Loop &L = Loops[G.FirstLoop + P];
    if (++Count[P] != L.Extent) {
      U64 *Off = Offsets.data() + std::size_t(G.FirstMember) * Slots;
      const U64 *Move =
          Moves.data() + G.FirstMove + std::size_t(P) * G.NumMembers * Slots;
      for (unsigned I = 0, E = G.NumMembers * Slots; I != E; ++I)
        Off[I] += Move[I];
      C.Key += L.Carry;
      return true;
    }
    Count[P] = 0;
  }
  return false;
}

/// The number of points, from the cursor's on, of its group's innermost
/// row whose (key, statement) stays below \p Limit, which the cursor's
/// head is below: the keys grow by the loop's carry from point to point,
/// and a tie loop's points share one key.
U64 DateWalker::stretch(const Cursor &C,
                        std::pair<U128, unsigned> Limit) const {
  const Group &G = Groups[C.Group];
  unsigned P = G.FirstLoop + G.NumLoops - 1;
  const Loop &L = Loops[P];
  U64 Rest = L.Extent - Counts[P];
  if (L.Carry == 0)
    return Rest;
  U128 Room = Limit.first - C.Key;
  U128 N = Room / L.Carry + (Room % L.Carry != 0);
  if (Room % L.Carry == 0 && Members[G.FirstMember].Stmt < Limit.second)
    ++N;
  return N < Rest ? static_cast<U64>(N) : Rest;
}

/// Runs \p N points of the cursor's group's innermost row, from its
/// point on, and leaves the cursor at the last one.
void DateWalker::runRow(Cursor &C, U64 N, const CompiledKernel &Code,
                        double *const *Data) {
  const Group &G = Groups[C.Group];
  unsigned P = G.NumLoops - 1;
  Code.executeRow(Members[G.FirstMember].Stmt,
                  Offsets.data() + std::size_t(G.FirstMember) * Slots,
                  Moves.data() + G.FirstMove + std::size_t(P) * Slots, N,
                  Data);
  Counts[G.FirstLoop + P] += N - 1;
  C.Key += Loops[G.FirstLoop + P].Carry * (N - 1);
}

/// Runs the rest of the cursor's walk.
void DateWalker::drain(Cursor &C, const CompiledKernel &Code,
                       double *const *Data) {
  const Group &G = Groups[C.Group];
  if (rows(C)) {
    unsigned P = G.FirstLoop + G.NumLoops - 1;
    do
      runRow(C, Loops[P].Extent - Counts[P], Code, Data);
    while (advance(C));
    return;
  }
  const Member *Ms = Members.data() + G.FirstMember;
  const U64 *Off = Offsets.data() + std::size_t(G.FirstMember) * Slots;
  do {
    for (unsigned M = C.Next; M != G.NumMembers; ++M)
      Code.executeAt(Ms[M].Stmt, Off + M * Slots, Data);
    C.Next = 0;
  } while (advance(C));
}

void DateWalker::run(const CompiledKernel &Code, double *const *Data) {
  Offsets = StartOffsets;
  Counts.assign(Loops.size(), 0);
  std::vector<Cursor> Live;
  for (unsigned G = 0, E = Groups.size(); G != E; ++G)
    Live.push_back({G, Groups[G].FirstKey});
  if (Identity) {
    for (Cursor &C : Live)
      drain(C, Code, Data);
    return;
  }
  // The head of a cursor: its next instance's key and statement.
  auto Head = [&](const Cursor &C) {
    const Member &M = Members[Groups[C.Group].FirstMember + C.Next];
    return std::pair<U128, unsigned>(C.Key + M.Delta, M.Stmt);
  };
  // Run the group with the smallest head until it passes the next one.
  while (Live.size() > 1) {
    unsigned Min = 0, Next = 1;
    if (Head(Live[1]) < Head(Live[0]))
      std::swap(Min, Next);
    for (unsigned I = 2, E = Live.size(); I != E; ++I) {
      if (Head(Live[I]) < Head(Live[Min])) {
        Next = Min;
        Min = I;
      } else if (Head(Live[I]) < Head(Live[Next])) {
        Next = I;
      }
    }
    Cursor &C = Live[Min];
    const Group &G = Groups[C.Group];
    const U64 *Off = Offsets.data() + std::size_t(G.FirstMember) * Slots;
    std::pair<U128, unsigned> Limit = Head(Live[Next]);
    bool Rows = rows(C);
    do {
      if (Rows) {
        runRow(C, stretch(C, Limit), Code, Data);
      } else {
        Code.executeAt(Members[G.FirstMember + C.Next].Stmt,
                       Off + C.Next * Slots, Data);
        if (++C.Next != G.NumMembers)
          continue;
        C.Next = 0;
      }
      if (!advance(C)) {
        Live.erase(Live.begin() + Min);
        break;
      }
    } while (Head(C) < Limit);
  }
  if (!Live.empty())
    drain(Live[0], Code, Data);
}

/// makeInputs' generator: fills \p Data from \p State and \returns the
/// state after its last element.
unsigned fillTensor(unsigned State, std::vector<double> &Data) {
  for (double &V : Data) {
    State = State * 1664525u + 1013904223u;
    V = static_cast<double>((State >> 8) % 2048) / 256.0 - 4.0;
  }
  return State;
}

/// Fills \p Buffers with makeInputs' pattern, reusing their storage, and
/// \returns the generator state each tensor starts from.
std::vector<unsigned> fillInputs(const Kernel &K, unsigned Seed,
                                 ExecBuffers &Buffers) {
  unsigned State = Seed * 2654435761u + 12345u;
  std::vector<unsigned> Starts;
  Buffers.Tensors.resize(K.Tensors.size());
  for (unsigned T = 0, E = K.Tensors.size(); T != E; ++T) {
    std::vector<double> &Data = Buffers.Tensors[T];
    Data.resize(K.Tensors[T].numElements());
    Starts.push_back(State);
    State = fillTensor(State, Data);
  }
  return Starts;
}

/// Runs \p N >= 1 points of a statement of kind \p Kind: its write goes to
/// \p Write, its reads come from \p Read, at the offsets \p Off (write
/// first), which move by \p Step between points and end at the last one.
template <OpKind Kind>
void runRow(double *Write, const double *const *Read, U64 *Off,
            const U64 *Step, U64 N) {
  constexpr unsigned NumReads = numOperands(Kind);
  const double *In[NumReads];
  U64 At[NumReads + 1], By[NumReads + 1];
  std::copy_n(Read, NumReads, In);
  std::copy_n(Off, NumReads + 1, At);
  std::copy_n(Step, NumReads + 1, By);
  for (;;) {
    double Reads[3] = {0, 0, 0};
    for (unsigned R = 0; R != NumReads; ++R)
      Reads[R] = In[R][At[R + 1]];
    Write[At[0]] = evaluateOp(Kind, Reads);
    if (--N == 0)
      break;
    for (unsigned A = 0; A != NumReads + 1; ++A)
      At[A] += By[A];
  }
  std::copy_n(At, NumReads + 1, Off);
}

} // namespace

bool pinj::tensorsAlmostEqual(const std::vector<double> &A,
                              const std::vector<double> &B, double Tolerance) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0, N = A.size(); I != N; ++I) {
    double X = A[I], Y = B[I];
    double Scale = std::max({1.0, std::abs(X), std::abs(Y)});
    if (std::abs(X - Y) > Tolerance * Scale)
      return false;
  }
  return true;
}

ExecBuffers pinj::makeInputs(const Kernel &K, unsigned Seed) {
  ExecBuffers Buffers;
  fillInputs(K, Seed, Buffers);
  return Buffers;
}

CompiledKernel::CompiledKernel(const Kernel &K) : K(&K) {
  Begin.push_back(0);
  for (const Statement &St : K.Stmts) {
    unsigned NumIters = St.numIters();
    MaxIters = std::max(MaxIters, NumIters);
    if (St.Reads.size() != numOperands(St.Kind))
      interpretError("operand count does not match op kind");
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

std::uint64_t CompiledKernel::offset(unsigned Stmt, unsigned A,
                                     const Int *Iters) const {
  const FlatStmt &S = Stmts[Stmt];
  const FlatAccess &Flat = Accesses[S.FirstAccess + A];
  U64 Offset = Flat.Base;
  const U64 *C = Coefs.data() + Flat.FirstCoef;
  for (unsigned I = 0; I != S.NumIters; ++I)
    Offset += C[I] * static_cast<U64>(Iters[I]);
  return Offset;
}

std::uint64_t CompiledKernel::stride(unsigned Stmt, unsigned A,
                                     unsigned Iter) const {
  return Coefs[Accesses[Stmts[Stmt].FirstAccess + A].FirstCoef + Iter];
}

void CompiledKernel::executeAt(unsigned Stmt, const std::uint64_t *Offsets,
                               double *const *Data) const {
  const FlatStmt &S = Stmts[Stmt];
  const FlatAccess *A = Accesses.data() + S.FirstAccess;
  double Reads[3] = {0, 0, 0};
  for (unsigned R = 0; R != S.NumReads; ++R)
    Reads[R] = Data[A[R + 1].Tensor][Offsets[R + 1]];
  Data[A[0].Tensor][Offsets[0]] = evaluateOp(S.Kind, Reads);
}

void CompiledKernel::executeRow(unsigned Stmt, std::uint64_t *Offsets,
                                const std::uint64_t *Step, std::uint64_t N,
                                double *const *Data) const {
  const FlatStmt &S = Stmts[Stmt];
  const FlatAccess *A = Accesses.data() + S.FirstAccess;
  double *Write = Data[A[0].Tensor];
  const double *Read[3] = {nullptr, nullptr, nullptr};
  for (unsigned R = 0; R != S.NumReads; ++R)
    Read[R] = Data[A[R + 1].Tensor];
  switch (S.Kind) {
  case OpKind::Assign:
    return runRow<OpKind::Assign>(Write, Read, Offsets, Step, N);
  case OpKind::Add:
    return runRow<OpKind::Add>(Write, Read, Offsets, Step, N);
  case OpKind::Sub:
    return runRow<OpKind::Sub>(Write, Read, Offsets, Step, N);
  case OpKind::Mul:
    return runRow<OpKind::Mul>(Write, Read, Offsets, Step, N);
  case OpKind::Div:
    return runRow<OpKind::Div>(Write, Read, Offsets, Step, N);
  case OpKind::Max:
    return runRow<OpKind::Max>(Write, Read, Offsets, Step, N);
  case OpKind::Min:
    return runRow<OpKind::Min>(Write, Read, Offsets, Step, N);
  case OpKind::Relu:
    return runRow<OpKind::Relu>(Write, Read, Offsets, Step, N);
  case OpKind::Exp:
    return runRow<OpKind::Exp>(Write, Read, Offsets, Step, N);
  case OpKind::Rsqrt:
    return runRow<OpKind::Rsqrt>(Write, Read, Offsets, Step, N);
  case OpKind::Neg:
    return runRow<OpKind::Neg>(Write, Read, Offsets, Step, N);
  case OpKind::Fma:
    return runRow<OpKind::Fma>(Write, Read, Offsets, Step, N);
  case OpKind::MulSub:
    return runRow<OpKind::MulSub>(Write, Read, Offsets, Step, N);
  }
  fatalError("unknown op kind");
}

void CompiledKernel::run(double *const *Data) const {
  DateWalker Walker;
  Walker.planEnumeration(*this);
  Walker.run(*this, Data);
}

std::vector<double *> CompiledKernel::tensorData(ExecBuffers &Buffers) {
  std::vector<double *> Data;
  for (std::vector<double> &T : Buffers.Tensors)
    Data.push_back(T.data());
  return Data;
}

struct DateOrderExecutor::Impl {
  const CompiledKernel *Code = nullptr;
  DateOrder Kind = DateOrder::Enumeration;
  DateWalker Walker;
};

DateOrderExecutor::DateOrderExecutor() : P(std::make_unique<Impl>()) {}

DateOrderExecutor::~DateOrderExecutor() = default;

DateOrder DateOrderExecutor::plan(const CompiledKernel &Code,
                                  const Schedule &S) {
  P->Code = &Code;
  if (!P->Walker.plan(Code, S, measureDates(Code, S)))
    interpretError(UnwalkableSchedule);
  return P->Kind = P->Walker.identity() ? DateOrder::Enumeration
                                        : DateOrder::Walk;
}

void DateOrderExecutor::run(double *const *Data) {
  const CompiledKernel &Code = *P->Code;
  if (P->Kind == DateOrder::Enumeration)
    return Code.run(Data);
  P->Walker.run(Code, Data);
}

struct ScheduleValidator::State {
  CompiledKernel Code;
  /// The original-order run, made by the first check whose schedule is
  /// not in that order.
  std::optional<ExecBuffers> Reference;
  /// The generator state each tensor's inputs start from.
  std::vector<unsigned> Starts;
  /// The tensors some statement writes, which a transformed run owns.
  std::vector<unsigned> Written;
  /// A transformed run's buffers: only the written tensors are filled.
  ExecBuffers Transformed;
  /// A transformed run's tensor base pointers: its own written tensors,
  /// and the reference's read-only ones.
  std::vector<double *> Data;
  DateOrderExecutor Executor;

  explicit State(const Kernel &K) : Code(K) {}

  /// Makes the original-order run and points the transformed run at it.
  void makeReference(const Kernel &K, unsigned Seed) {
    Reference.emplace();
    Starts = fillInputs(K, Seed, *Reference);
    Code.run(*Reference);
    Data = CompiledKernel::tensorData(*Reference);
    std::vector<bool> IsWritten(K.Tensors.size(), false);
    for (const Statement &Stmt : K.Stmts)
      IsWritten[Stmt.Write.TensorId] = true;
    Transformed.Tensors.resize(K.Tensors.size());
    for (unsigned T = 0, E = K.Tensors.size(); T != E; ++T) {
      if (!IsWritten[T])
        continue;
      Written.push_back(T);
      Transformed.Tensors[T].resize(Reference->Tensors[T].size());
      Data[T] = Transformed.Tensors[T].data();
    }
  }
};

ScheduleValidator::ScheduleValidator(const Kernel &K, unsigned Seed)
    : K(K), Seed(Seed) {}

ScheduleValidator::~ScheduleValidator() = default;

bool ScheduleValidator::check(const Schedule &S) {
  failpoint::hit("exec.interpret");
  if (!St)
    St = std::make_unique<State>(K);
  // The same program on the same inputs in the same order leaves
  // bit-identical buffers.
  if (St->Executor.plan(St->Code, S) == DateOrder::Enumeration)
    return true;
  if (!St->Reference)
    St->makeReference(K, Seed);
  for (unsigned T : St->Written)
    fillTensor(St->Starts[T], St->Transformed.Tensors[T]);
  St->Executor.run(St->Data.data());
  for (unsigned T : St->Written)
    if (!tensorsAlmostEqual(St->Reference->Tensors[T],
                            St->Transformed.Tensors[T], 1e-9))
      return false;
  return true;
}

const ExecBuffers *ScheduleValidator::reference() const {
  return St && St->Reference ? &*St->Reference : nullptr;
}

bool pinj::scheduleIsSemanticallyEqual(const Kernel &K, const Schedule &S,
                                       unsigned Seed) {
  return ScheduleValidator(K, Seed).check(S);
}
