//===- sched/Schedule.cpp -------------------------------------------------===//

#include "sched/Schedule.h"

#include "ir/Printer.h"

#include <algorithm>
#include <sstream>

using namespace pinj;

IntMatrix Schedule::iteratorPart(const Kernel &K, unsigned Stmt) const {
  const Statement &S = K.Stmts[Stmt];
  const IntMatrix &T = Transforms[Stmt];
  IntMatrix H(T.numRows(), S.numIters());
  for (unsigned R = 0, NR = T.numRows(); R != NR; ++R)
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      H.at(R, I) = T.at(R, I);
  return H;
}

IntVector Schedule::apply(const Kernel &K, unsigned Stmt,
                          const IntVector &Iters,
                          const IntVector &Params) const {
  const Statement &S = K.Stmts[Stmt];
  assert(Iters.size() == S.numIters() && "iteration vector width mismatch");
  assert(Params.size() == K.numParams() && "parameter vector width mismatch");
  IntVector Full;
  Full.reserve(K.rowWidth(S));
  Full.insert(Full.end(), Iters.begin(), Iters.end());
  Full.insert(Full.end(), Params.begin(), Params.end());
  Full.push_back(1);
  return Transforms[Stmt].multiply(Full);
}

IntVector Schedule::differenceExpr(const Kernel &K,
                                   const DependenceRelation &D,
                                   unsigned Dim) const {
  const Statement &Src = K.Stmts[D.SrcStmt];
  const Statement &Dst = K.Stmts[D.DstStmt];
  const IntVector &SrcRow = Transforms[D.SrcStmt].row(Dim);
  const IntVector &DstRow = Transforms[D.DstStmt].row(Dim);
  unsigned Width = D.Rel.space().width();
  IntVector Expr(Width, 0);
  // Source iterators occupy the first block of the relation space.
  for (unsigned I = 0, E = Src.numIters(); I != E; ++I)
    Expr[I] = checkedSub(Expr[I], SrcRow[I]);
  for (unsigned I = 0, E = Dst.numIters(); I != E; ++I)
    Expr[Src.numIters() + I] =
        checkedAdd(Expr[Src.numIters() + I], DstRow[I]);
  for (unsigned P = 0, E = K.numParams(); P != E; ++P) {
    Int SrcCoeff = SrcRow[Src.numIters() + P];
    Int DstCoeff = DstRow[Dst.numIters() + P];
    Expr[D.Rel.space().NumDims + P] = checkedSub(DstCoeff, SrcCoeff);
  }
  Expr.back() = checkedSub(DstRow.back(), SrcRow.back());
  return Expr;
}

bool Schedule::stronglySatisfiedAt(const Kernel &K,
                                   const DependenceRelation &D,
                                   unsigned Dim) const {
  return D.Rel.isAlwaysAtLeast(differenceExpr(K, D, Dim), 1);
}

std::pair<bool, bool>
pinj::dimParallelism(const Kernel &K, const Schedule &S,
                     const std::vector<DependenceRelation> &Deps,
                     const std::vector<bool> &Carried, unsigned D) {
  bool Parallel = true, ThreadParallel = true;
  for (unsigned I = 0, E = Deps.size(); I != E && ThreadParallel; ++I) {
    if (!Deps[I].constrainsValidity() || Carried[I] ||
        Deps[I].Rel.isAlwaysZero(S.differenceExpr(K, Deps[I], D)))
      continue;
    Parallel = false;
    if (Deps[I].SrcStmt == Deps[I].DstStmt)
      ThreadParallel = false;
  }
  return {Parallel, ThreadParallel};
}

void pinj::markCarried(const Kernel &K, const Schedule &S,
                       const std::vector<DependenceRelation> &Deps,
                       unsigned D, std::vector<bool> &Carried) {
  for (unsigned I = 0, E = Deps.size(); I != E; ++I)
    if (!Carried[I] && Deps[I].constrainsValidity() &&
        S.stronglySatisfiedAt(K, Deps[I], D))
      Carried[I] = true;
}

void pinj::annotateParallelism(const Kernel &K, Schedule &S) {
  std::vector<DependenceRelation> Deps = computeDependences(K);
  std::vector<bool> Carried(Deps.size(), false);
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    auto [Parallel, ThreadParallel] = dimParallelism(K, S, Deps, Carried, D);
    S.Dims[D].IsParallel = Parallel && !S.Dims[D].IsScalar;
    S.Dims[D].ThreadParallel = ThreadParallel && !S.Dims[D].IsScalar;
    markCarried(K, S, Deps, D, Carried);
  }
}

Schedule pinj::originalSchedule(const Kernel &K) {
  unsigned MaxDepth = 0;
  for (const Statement &S : K.Stmts)
    MaxDepth = std::max(MaxDepth, S.numIters());

  // 2d+1 form: (Beta[0], i0, Beta[1], i1, ..., Beta[d]); statements
  // shallower than MaxDepth pad with zero rows, the standard
  // lexicographic embedding.
  Schedule Sched;
  Sched.Transforms.assign(K.Stmts.size(), IntMatrix());
  unsigned NumDims = 2 * MaxDepth + 1;
  for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S) {
    const Statement &Stmt = K.Stmts[S];
    IntMatrix T(0, K.rowWidth(Stmt));
    for (unsigned D = 0; D != NumDims; ++D) {
      IntVector Row(K.rowWidth(Stmt), 0);
      unsigned Level = D / 2;
      if (D % 2 == 0) {
        if (Level < Stmt.OrigBeta.size())
          Row.back() = Stmt.OrigBeta[Level];
      } else if (Level < Stmt.numIters()) {
        Row[Level] = 1;
      }
      T.appendRow(Row);
    }
    Sched.Transforms[S] = std::move(T);
  }
  for (unsigned D = 0; D != NumDims; ++D) {
    DimInfo Info;
    Info.IsScalar = D % 2 == 0;
    Info.BandStart = D % 2 == 1; // Each loop is its own 1-dim band.
    Sched.Dims.push_back(Info);
  }
  // Parallelism annotation runs dependence analysis, which solves LPs —
  // the very machinery whose failure may have brought us here. Treat it
  // as best-effort: without it every dimension stays sequential, which
  // is slower but always correct.
  try {
    annotateParallelism(K, Sched);
  } catch (const RecoverableError &) {
  }
  return Sched;
}

bool Schedule::compatibleWith(const Kernel &K) const {
  if (Transforms.size() != K.Stmts.size())
    return false;
  for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S) {
    if (Transforms[S].numRows() != numDims())
      return false;
    if (Transforms[S].numCols() != K.rowWidth(K.Stmts[S]))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string pinj::serializeSchedule(const Schedule &S) {
  std::string Out = "schedule v1\n";
  Out += "dims " + std::to_string(S.Dims.size()) + " stmts " +
         std::to_string(S.Transforms.size()) + "\n";
  for (const DimInfo &D : S.Dims) {
    Out += "dim";
    Out += D.IsScalar ? " scalar=1" : " scalar=0";
    Out += D.BandStart ? " band=1" : " band=0";
    Out += D.IsParallel ? " parallel=1" : " parallel=0";
    Out += D.ThreadParallel ? " threadpar=1" : " threadpar=0";
    Out += D.Influenced ? " influenced=1" : " influenced=0";
    Out += " vecwidth=" + std::to_string(D.VectorWidth);
    Out += " vecstmts=";
    if (D.VectorStmts.empty()) {
      Out += "-";
    } else {
      for (unsigned I = 0, E = D.VectorStmts.size(); I != E; ++I) {
        if (I != 0)
          Out += ',';
        Out += std::to_string(D.VectorStmts[I]);
      }
    }
    Out += "\n";
  }
  for (const IntMatrix &T : S.Transforms) {
    Out += "transform rows=" + std::to_string(T.numRows()) +
           " cols=" + std::to_string(T.numCols()) + "\n";
    for (unsigned R = 0, NR = T.numRows(); R != NR; ++R) {
      const IntVector &Row = T.row(R);
      for (unsigned C = 0, NC = T.numCols(); C != NC; ++C) {
        if (C != 0)
          Out += ' ';
        Out += std::to_string(Row[C]);
      }
      Out += "\n";
    }
  }
  Out += "end\n";
  return Out;
}

namespace {

/// Parses "key=value" where the key must match \p Key; \returns the
/// value text or nullopt.
std::optional<std::string> takeKeyed(std::istringstream &Tokens,
                                     const char *Key) {
  std::string Token;
  if (!(Tokens >> Token))
    return std::nullopt;
  std::string Prefix = std::string(Key) + "=";
  if (Token.rfind(Prefix, 0) != 0)
    return std::nullopt;
  return Token.substr(Prefix.size());
}

std::optional<bool> parseBoolText(const std::string &Text) {
  if (Text == "0")
    return false;
  if (Text == "1")
    return true;
  return std::nullopt;
}

std::optional<std::uint64_t> parseUnsignedText(const std::string &Text) {
  if (Text.empty() || Text.size() > 18 ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  return std::stoull(Text);
}

std::optional<Int> parseIntText(const std::string &Text) {
  std::string Digits = Text;
  bool Negative = false;
  if (!Digits.empty() && Digits[0] == '-') {
    Negative = true;
    Digits = Digits.substr(1);
  }
  std::optional<std::uint64_t> V = parseUnsignedText(Digits);
  if (!V)
    return std::nullopt;
  Int I = static_cast<Int>(*V);
  return Negative ? -I : I;
}

} // namespace

std::optional<Schedule>
pinj::deserializeSchedule(const std::string &Text, std::string &Error) {
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  auto fail = [&](const std::string &Message) {
    Error = "schedule line " + std::to_string(LineNo) + ": " + Message;
    return std::nullopt;
  };
  auto nextLine = [&]() {
    if (!std::getline(In, Line))
      return false;
    ++LineNo;
    return true;
  };

  if (!nextLine() || Line != "schedule v1")
    return fail("expected 'schedule v1' header");
  if (!nextLine())
    return fail("truncated after header");
  std::uint64_t NumDims = 0, NumStmts = 0;
  {
    std::istringstream Tokens(Line);
    std::string Keyword;
    std::string DimText, StmtText;
    std::string StmtsKeyword;
    if (!(Tokens >> Keyword >> DimText >> StmtsKeyword >> StmtText) ||
        Keyword != "dims" || StmtsKeyword != "stmts")
      return fail("expected 'dims <n> stmts <n>'");
    std::optional<std::uint64_t> D = parseUnsignedText(DimText);
    std::optional<std::uint64_t> S = parseUnsignedText(StmtText);
    if (!D || !S)
      return fail("malformed dims/stmts counts");
    NumDims = *D;
    NumStmts = *S;
    std::string Extra;
    if (Tokens >> Extra)
      return fail("trailing tokens after counts");
  }
  // A schedule with more dimensions or statements than any kernel the
  // pipeline can produce is corrupt, not large.
  if (NumDims > 1024 || NumStmts > 4096)
    return fail("implausible dims/stmts counts");

  Schedule S;
  for (std::uint64_t D = 0; D != NumDims; ++D) {
    if (!nextLine())
      return fail("truncated dim list");
    std::istringstream Tokens(Line);
    std::string Keyword;
    if (!(Tokens >> Keyword) || Keyword != "dim")
      return fail("expected 'dim'");
    DimInfo Info;
    std::optional<std::string> V;
    std::optional<bool> B;
    if (!(V = takeKeyed(Tokens, "scalar")) || !(B = parseBoolText(*V)))
      return fail("malformed scalar flag");
    Info.IsScalar = *B;
    if (!(V = takeKeyed(Tokens, "band")) || !(B = parseBoolText(*V)))
      return fail("malformed band flag");
    Info.BandStart = *B;
    if (!(V = takeKeyed(Tokens, "parallel")) || !(B = parseBoolText(*V)))
      return fail("malformed parallel flag");
    Info.IsParallel = *B;
    if (!(V = takeKeyed(Tokens, "threadpar")) || !(B = parseBoolText(*V)))
      return fail("malformed threadpar flag");
    Info.ThreadParallel = *B;
    if (!(V = takeKeyed(Tokens, "influenced")) || !(B = parseBoolText(*V)))
      return fail("malformed influenced flag");
    Info.Influenced = *B;
    if (!(V = takeKeyed(Tokens, "vecwidth")))
      return fail("malformed vecwidth");
    std::optional<std::uint64_t> W = parseUnsignedText(*V);
    if (!W || *W > 16)
      return fail("malformed vecwidth");
    Info.VectorWidth = static_cast<unsigned>(*W);
    if (!(V = takeKeyed(Tokens, "vecstmts")))
      return fail("malformed vecstmts");
    if (*V != "-") {
      std::istringstream ListIn(*V);
      std::string Item;
      while (std::getline(ListIn, Item, ',')) {
        std::optional<std::uint64_t> Stmt = parseUnsignedText(Item);
        if (!Stmt || *Stmt >= NumStmts)
          return fail("vecstmts index out of range");
        Info.VectorStmts.push_back(static_cast<unsigned>(*Stmt));
      }
      if (Info.VectorStmts.empty())
        return fail("empty vecstmts list");
    }
    std::string Extra;
    if (Tokens >> Extra)
      return fail("trailing tokens on dim line");
    S.Dims.push_back(std::move(Info));
  }

  for (std::uint64_t Stmt = 0; Stmt != NumStmts; ++Stmt) {
    if (!nextLine())
      return fail("truncated transform list");
    std::istringstream Tokens(Line);
    std::string Keyword;
    if (!(Tokens >> Keyword) || Keyword != "transform")
      return fail("expected 'transform'");
    std::optional<std::string> V;
    std::optional<std::uint64_t> Rows, Cols;
    if (!(V = takeKeyed(Tokens, "rows")) || !(Rows = parseUnsignedText(*V)))
      return fail("malformed transform rows");
    if (!(V = takeKeyed(Tokens, "cols")) || !(Cols = parseUnsignedText(*V)))
      return fail("malformed transform cols");
    if (*Rows != NumDims)
      return fail("transform row count disagrees with dims");
    if (*Cols == 0 || *Cols > 4096)
      return fail("implausible transform cols");
    std::string Extra;
    if (Tokens >> Extra)
      return fail("trailing tokens on transform line");
    IntMatrix T(static_cast<unsigned>(*Rows), static_cast<unsigned>(*Cols));
    for (std::uint64_t R = 0; R != *Rows; ++R) {
      if (!nextLine())
        return fail("truncated transform rows");
      std::istringstream RowTokens(Line);
      std::string Cell;
      for (std::uint64_t C = 0; C != *Cols; ++C) {
        if (!(RowTokens >> Cell))
          return fail("short transform row");
        std::optional<Int> Value = parseIntText(Cell);
        if (!Value)
          return fail("malformed transform entry '" + Cell + "'");
        T.at(static_cast<unsigned>(R), static_cast<unsigned>(C)) = *Value;
      }
      if (RowTokens >> Cell)
        return fail("long transform row");
    }
    S.Transforms.push_back(std::move(T));
  }

  if (!nextLine() || Line != "end")
    return fail("missing 'end' terminator");
  if (nextLine())
    return fail("trailing content after 'end'");
  return S;
}

std::string Schedule::str(const Kernel &K) const {
  std::string Out;
  for (unsigned S = 0, NS = K.Stmts.size(); S != NS; ++S) {
    const Statement &Stmt = K.Stmts[S];
    Out += "theta_" + Stmt.Name + " = (";
    for (unsigned D = 0, ND = numDims(); D != ND; ++D) {
      if (D != 0)
        Out += ", ";
      Out +=
          printAffineRow(Transforms[S].row(D), Stmt.IterNames, K.ParamNames);
    }
    Out += ")\n";
  }
  for (unsigned D = 0, ND = numDims(); D != ND; ++D) {
    Out += "dim " + std::to_string(D) + ":";
    if (Dims[D].BandStart)
      Out += " band-start";
    if (Dims[D].IsScalar)
      Out += " scalar";
    if (Dims[D].IsParallel)
      Out += " parallel";
    if (Dims[D].Influenced)
      Out += " influenced";
    if (!Dims[D].VectorStmts.empty()) {
      Out += " vector(x" + std::to_string(Dims[D].VectorWidth) + ":";
      for (unsigned S : Dims[D].VectorStmts)
        Out += " " + K.Stmts[S].Name;
      Out += ")";
    }
    Out += "\n";
  }
  return Out;
}
