//===- support/Support.cpp ------------------------------------------------===//

#include "support/Support.h"

#include <cstdio>
#include <execinfo.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pinj;

void pinj::fatalError(const char *Message) {
  std::fprintf(stderr, "polyinject fatal error: %s\n", Message);
  // Best-effort backtrace to make internal-invariant reports actionable.
  void *Frames[32];
  int Depth = backtrace(Frames, 32);
  backtrace_symbols_fd(Frames, Depth, /*stderr=*/2);
  std::abort();
}

void pinj::overflowError(const char *Message) {
  raiseError(StatusCode::Overflow, "support.checked_arith", Message);
}

Int pinj::lcmInt(Int A, Int B) {
  if (A == 0 || B == 0)
    return 0;
  Int G = gcdInt(A, B);
  Int AbsA = A < 0 ? checkedNeg(A) : A;
  Int AbsB = B < 0 ? checkedNeg(B) : B;
  return checkedMul(AbsA / G, AbsB);
}

bool pinj::writeFileAtomically(const std::string &Path,
                               const std::string &Contents, std::string *Err) {
  namespace fs = std::filesystem;
  auto Fail = [Err](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::ostringstream TmpName;
  TmpName << Path << ".tmp." << std::this_thread::get_id();
  std::string Tmp = TmpName.str();
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Fail("cannot open " + Tmp + " for writing");
    Out << Contents;
    Out.close();
    if (!Out) {
      std::error_code Ec;
      fs::remove(Tmp, Ec);
      return Fail("write to " + Tmp + " failed");
    }
  }
  // The rename is atomic within a directory.
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return Fail("rename to " + Path + " failed: " + Ec.message());
  }
  return true;
}

bool pinj::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return false;
  Out = Buf.str();
  return true;
}
