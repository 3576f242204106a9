//===- support/Support.h - Small shared utilities --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Overflow-checked 64-bit integer arithmetic, gcd/lcm, and tiny string
/// helpers shared by every other library in the project.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_SUPPORT_H
#define POLYINJECT_SUPPORT_SUPPORT_H

#include "support/Status.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

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

/// Greatest common divisor; gcd(0, 0) == 0, result is nonnegative.
Int gcdInt(Int A, Int B);

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

/// Joins \p Parts with \p Sep; convenience for printers.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

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
