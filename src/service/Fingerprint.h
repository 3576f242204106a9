//===- service/Fingerprint.h - Canonical kernel fingerprints ----*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation service's cache key: a 128-bit structural hash
/// (two-lane FNV-1a) over a normalized kernel, combined with a hash of
/// the effective pipeline tunables.
///
/// Normalization erases everything that cannot change the scheduling
/// result: the kernel name, statement names, iterator names and tensor
/// names are all dropped. What remains is the dependence-relevant
/// structure — statement order, iteration-domain extents, op kinds,
/// access matrices with tensor *identities* (ids), element widths,
/// tensor shapes and the original-order beta vectors. Two fused
/// operators that differ only in naming therefore collide
/// intentionally: `runOperator` is a pure function of this structure
/// plus the tunables, so they share one cache entry.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SERVICE_FINGERPRINT_H
#define POLYINJECT_SERVICE_FINGERPRINT_H

#include "ir/Kernel.h"

#include <cstdint>
#include <string>

namespace pinj {

class InfluenceTree;
struct PipelineOptions;
struct SchedulerOptions;
struct SolverBudget;

namespace service {

/// A 128-bit fingerprint: two independent 64-bit FNV-1a lanes. The
/// second lane uses a different offset basis and a byte salt, so a
/// collision requires breaking both simultaneously.
struct Fingerprint {
  std::uint64_t Hi = 0;
  std::uint64_t Lo = 0;

  bool operator==(const Fingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
  bool operator<(const Fingerprint &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// 32 lowercase hex characters (Hi then Lo); the on-disk file stem.
  std::string str() const;

  /// Parses the str() form back. \returns false on anything but exactly
  /// 32 lowercase hex characters (the cache sweep validates on-disk file
  /// names with this).
  static bool fromHex(const std::string &Hex, Fingerprint &Out);
};

/// Incremental two-lane FNV-1a hasher. Multi-byte values are fed in a
/// fixed little-endian order so fingerprints are stable across hosts.
class FingerprintBuilder {
public:
  FingerprintBuilder();

  void byte(std::uint8_t B);
  void u32(std::uint32_t V);
  void u64(std::uint64_t V);
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }
  /// Doubles hash by bit pattern (the tunables are set, not computed,
  /// so bit-exact equality is the right notion).
  void f64(double V);
  void str(const std::string &S);

  Fingerprint get() const { return {Hi, Lo}; }

private:
  std::uint64_t Hi;
  std::uint64_t Lo;
};

/// The structural fingerprint of \p K with names erased (see file
/// comment for exactly what is hashed).
Fingerprint fingerprintKernel(const Kernel &K);

/// The fingerprint of an influence tree: every node field (depth, label,
/// constraints, objectives, RequireParallel, vector statements and
/// width) and the child order. Unlike InfluenceTree::str, trees that can
/// schedule differently never share one.
Fingerprint fingerprintInfluenceTree(const InfluenceTree &T);

/// Feeds every SchedulerOptions field except Budget into \p H.
void hashSchedulerOptions(FingerprintBuilder &H, const SchedulerOptions &S);

/// Feeds a solver budget's three limits into \p H.
void hashBudget(FingerprintBuilder &H, const SolverBudget &B);

/// A 64-bit hash of every PipelineOptions field that can change the
/// compilation result: scheduler tunables, influence cost weights, GPU
/// mapping limits, the backend target (kind plus every model constant,
/// not its display name), validation, and the solver budgets (an
/// exhausted budget changes the schedule, so budgeted and unbudgeted
/// runs must not share entries). Sink/Cache/Tuner pointers are
/// excluded.
std::uint64_t fingerprintOptions(const PipelineOptions &Options);

/// The cache key: fingerprintKernel(K) folded with
/// fingerprintOptions(Options).
Fingerprint fingerprintRequest(const Kernel &K,
                               const PipelineOptions &Options);

} // namespace service
} // namespace pinj

#endif // POLYINJECT_SERVICE_FINGERPRINT_H
