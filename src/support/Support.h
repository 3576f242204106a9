//===- support/Support.h - Small shared utilities --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Overflow-checked 64-bit integer arithmetic, the 64- and 128-bit gcd,
/// lcm, and small file helpers shared by every other library in the
/// project.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_SUPPORT_H
#define POLYINJECT_SUPPORT_SUPPORT_H

#include "support/Status.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

namespace pinj {

/// The integer type used throughout the polyhedral layers. Exact rational
/// arithmetic on top of it keeps numerators/denominators small via gcd
/// normalization; all operations are overflow-checked in every build.
using Int = std::int64_t;

/// Aborts with a message; reserved for internal invariant violations that
/// are unreachable from any parseable input. Reachable failures (overflow
/// included) raise a RecoverableError instead; see support/Status.h.
[[noreturn]] void fatalError(const char *Message);

/// Raises a recoverable Overflow error; out of line so the checked
/// helpers inline to a single well-predicted branch.
[[noreturn]] void overflowError(const char *Message);

/// Overflow-checked addition.
inline Int checkedAdd(Int A, Int B) {
  Int R;
  if (__builtin_add_overflow(A, B, &R))
    overflowError("integer overflow in addition");
  return R;
}

/// Overflow-checked subtraction.
inline Int checkedSub(Int A, Int B) {
  Int R;
  if (__builtin_sub_overflow(A, B, &R))
    overflowError("integer overflow in subtraction");
  return R;
}

/// Overflow-checked multiplication.
inline Int checkedMul(Int A, Int B) {
  Int R;
  if (__builtin_mul_overflow(A, B, &R))
    overflowError("integer overflow in multiplication");
  return R;
}

/// Negation that rejects the non-negatable minimum value.
inline Int checkedNeg(Int A) {
  if (A == INT64_MIN)
    overflowError("integer overflow in negation");
  return -A;
}

/// The wide integers that exact arithmetic escalates to.
using Int128 = __int128;
using UInt128 = unsigned __int128;

/// \returns |V| (unsigned, so |INT64_MIN| is representable).
inline std::uint64_t magnitude(Int V) {
  return V < 0 ? 0 - static_cast<std::uint64_t>(V)
               : static_cast<std::uint64_t>(V);
}

/// \returns |V| (unsigned, so |INT128_MIN| is representable).
inline UInt128 magnitude(Int128 V) {
  return V < 0 ? 0 - static_cast<UInt128>(V) : static_cast<UInt128>(V);
}

/// Binary gcd of two magnitudes; gcd(0, B) == B.
inline std::uint64_t gcdMag(std::uint64_t A, std::uint64_t B) {
  if (A == 0)
    return B;
  if (B == 0)
    return A;
  int Shift = __builtin_ctzll(A | B);
  A >>= __builtin_ctzll(A);
  do {
    B >>= __builtin_ctzll(B);
    if (A > B)
      std::swap(A, B);
    B -= A;
  } while (B != 0);
  return A << Shift;
}

/// gcd of two 128-bit magnitudes: Euclid's remainders until both fit in
/// 64 bits, then gcdMag.
inline UInt128 gcdMag128(UInt128 A, UInt128 B) {
  while ((A | B) >> 64 != 0) {
    if (B == 0)
      return A;
    UInt128 T = A % B;
    A = B;
    B = T;
  }
  return gcdMag(static_cast<std::uint64_t>(A), static_cast<std::uint64_t>(B));
}

/// Greatest common divisor; gcd(0, 0) == 0, result is nonnegative. Raises
/// Overflow only when the result, 2^63, does not fit.
inline Int gcdInt(Int A, Int B) {
  std::uint64_t G = gcdMag(magnitude(A), magnitude(B));
  if (G > static_cast<std::uint64_t>(INT64_MAX))
    overflowError("integer overflow in gcd");
  return static_cast<Int>(G);
}

/// Least common multiple (overflow-checked); lcm(0, x) == 0.
Int lcmInt(Int A, Int B);

/// Floor division (rounds toward negative infinity).
inline Int floorDiv(Int A, Int B) {
  assert(B != 0 && "floorDiv by zero");
  Int Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

/// Ceiling division (rounds toward positive infinity).
inline Int ceilDiv(Int A, Int B) {
  assert(B != 0 && "ceilDiv by zero");
  Int Q = A / B;
  if ((A % B != 0) && ((A < 0) == (B < 0)))
    ++Q;
  return Q;
}

/// Writes \p Contents to \p Path through a per-thread temporary beside
/// it, renamed over \p Path, so readers (and concurrent writers) only
/// ever see complete files. \returns false, with the reason in \p Err
/// when non-null, if any step failed; the temporary is then removed.
bool writeFileAtomically(const std::string &Path, const std::string &Contents,
                         std::string *Err = nullptr);

/// Reads the whole of \p Path, byte for byte, into \p Out. \returns
/// false, leaving \p Out untouched, when the file cannot be opened or
/// read.
bool readFile(const std::string &Path, std::string &Out);

} // namespace pinj

#endif // POLYINJECT_SUPPORT_SUPPORT_H
