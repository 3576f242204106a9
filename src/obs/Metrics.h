//===- obs/Metrics.h - Process-wide metrics registry ------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters and histograms for the scheduling pipeline: ILP
/// solves/failures/nodes, simplex pivots, dependences computed,
/// scenarios enumerated, warps simulated, memory transactions, and
/// whatever future phases need. Counters are always on — one relaxed
/// 64-bit atomic add through a cached reference — and the process-wide
/// registry holds only process totals. `reset()` zeroes values in place,
/// keeping references obtained from `counter()`/`histogram()` valid, so
/// hot call sites may cache them in function-local statics.
///
/// Per-request and per-stage counts come from a `Tally`: every increment
/// and observation also lands in the tally a `TallyScope` installed on
/// the current thread, indexed by the metric id the registry assigned
/// when it created the metric. Scopes nest; a closing scope folds its
/// tally into the one it displaced. The pipeline opens one per operator
/// and one per stage (obs/Stage.h), so concurrent workers never count
/// into each other's records.
///
/// The registry is thread-safe: the batch compiler (service/) runs
/// pipeline workers concurrently, so counter increments are atomic,
/// histograms take a per-histogram mutex, and the name maps are guarded
/// by a registry mutex. Map nodes are stable, so cached references stay
/// valid for the process lifetime. Tallies are per thread and need no
/// lock.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OBS_METRICS_H
#define POLYINJECT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pinj {
namespace obs {

/// The diffable, mergeable summary of one histogram. Buckets use the
/// fixed quarter-octave scheme described on Histogram, so summaries from
/// different processes (or different runs, via the JSON sidecars) merge
/// exactly and percentile estimates survive aggregation.
struct HistogramSummary {
  std::uint64_t Count = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
  /// Per-bucket counts; empty when the source carried no bucket data
  /// (e.g. a summary parsed from an old sidecar). Size is
  /// Histogram::NumBuckets otherwise.
  std::vector<std::uint64_t> Buckets;

  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }

  /// Estimates the \p Q-th percentile (Q in [0,100]) by walking the
  /// cumulative bucket counts and interpolating geometrically inside the
  /// selected bucket; the estimate is clamped to [Min, Max], so with a
  /// single sample every percentile is exact. Returns 0 when Count == 0
  /// or no bucket data is present. Relative error is bounded by the
  /// quarter-octave bucket width (~19%) and is typically far smaller.
  double percentile(double Q) const;

  /// Records one sample.
  void add(double Sample);

  /// Accumulates \p Other into this summary. Exact for count/sum/
  /// min/max/buckets: merging is associative and commutative, so
  /// fleet-level aggregation order does not matter.
  void merge(const HistogramSummary &Other);
};

struct MetricsSnapshot;
class Counter;

/// The id of a counter or histogram the registry did not create; such a
/// metric counts into no tally.
inline constexpr unsigned NoMetricId = ~0u;

/// The counts and samples recorded while it was installed on a thread
/// (see TallyScope), indexed by metric id. Not thread-safe: one thread
/// owns it.
class Tally {
public:
  void add(unsigned CounterId, std::uint64_t N) {
    if (CounterId == NoMetricId)
      return;
    if (CounterId >= Counts.size())
      Counts.resize(CounterId + 1, 0);
    Counts[CounterId] += N;
  }
  void observe(unsigned HistogramId, double Sample);
  /// Adds \p Samples into histogram \p HistogramId's entry.
  void merge(unsigned HistogramId, const HistogramSummary &Samples);
  /// Adds \p Other's counts and samples into this tally.
  void merge(const Tally &Other);

  /// \p C's count in this tally.
  std::uint64_t count(const Counter &C) const;
  /// The nonzero counters and nonempty histograms, by name.
  MetricsSnapshot nonzero() const;

private:
  friend class TallyRecord;
  std::vector<std::uint64_t> Counts;
  std::vector<HistogramSummary> Samples;
};

namespace detail {
/// The tally this thread counts into; null outside every TallyScope.
inline thread_local Tally *CurrentTally = nullptr;
} // namespace detail

/// RAII: installs a fresh tally on this thread; at close, restores the
/// tally it displaced and folds its own counts into it.
class TallyScope {
public:
  TallyScope() : Enclosing(detail::CurrentTally) {
    detail::CurrentTally = &Own;
  }
  ~TallyScope() {
    detail::CurrentTally = Enclosing;
    if (Enclosing)
      Enclosing->merge(Own);
  }
  TallyScope(const TallyScope &) = delete;
  TallyScope &operator=(const TallyScope &) = delete;

  const Tally &tally() const { return Own; }

private:
  Tally Own;
  Tally *Enclosing;
};

/// A monotonically increasing 64-bit counter. Increments are relaxed
/// atomics: concurrent workers never lose counts, but cross-counter
/// consistency is only what snapshot() observes. Each increment also
/// lands in this thread's tally, if one is installed.
class Counter {
public:
  void inc() { add(1); }
  void add(std::uint64_t N) {
    Val.fetch_add(N, std::memory_order_relaxed);
    if (Tally *T = detail::CurrentTally)
      T->add(Id, N);
  }
  std::uint64_t value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0, std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  friend class Tally;
  std::atomic<std::uint64_t> Val{0};
  unsigned Id = NoMetricId;
};

/// Count/sum/min/max plus fixed log-scale buckets over nonnegative
/// samples. Bucket 0 holds samples < 1; bucket I >= 1 holds samples in
/// [2^((I-1)/4), 2^(I/4)) — quarter-octave resolution, so percentile
/// estimates carry at most ~19% relative error while summaries from any
/// two processes remain mergeable bucket-by-bucket (the scheme is fixed,
/// never adapted to data). 256 buckets span [1, 2^63.75), enough for
/// nanosecond-scale samples up to hours. Guarded by a per-histogram
/// mutex (observations are rare compared to counter increments). Each
/// observation also lands in this thread's tally, if one is installed.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 256;

  /// The bucket index \p Sample falls into.
  static unsigned bucketIndex(double Sample);
  /// Inclusive lower bound of bucket \p I (0 for bucket 0).
  static double bucketLowerBound(unsigned I);
  /// Exclusive upper bound of bucket \p I (1 for bucket 0); the last
  /// bucket reports its nominal bound although it also absorbs larger
  /// samples.
  static double bucketUpperBound(unsigned I);

  void observe(double Sample);
  /// Records \p Samples as if each of its samples were observed.
  void merge(const HistogramSummary &Samples);

  /// One consistent view of count/sum/min/max/buckets.
  HistogramSummary summary() const {
    std::lock_guard<std::mutex> L(Mu);
    return S;
  }
  void reset() {
    std::lock_guard<std::mutex> L(Mu);
    S = HistogramSummary();
  }

private:
  friend class MetricsRegistry;
  unsigned Id = NoMetricId;
  mutable std::mutex Mu;
  HistogramSummary S;
};

/// A point-in-time copy of every metric value; cheap to diff.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> Counters;
  std::map<std::string, HistogramSummary> Histograms;

  /// Counter \p Name's value, 0 when absent.
  std::uint64_t counter(const std::string &Name) const;
  /// Histogram \p Name's summary, or null when absent.
  const HistogramSummary *histogram(const std::string &Name) const;

  /// Per-entry difference: this minus \p Before (entries absent from
  /// Before count from zero), for process-level deltas such as a bench
  /// phase. Histogram buckets diff element-wise; Min/Max keep this
  /// snapshot's values (extrema are not diffable).
  MetricsSnapshot since(const MetricsSnapshot &Before) const;

  /// {"counters":{...},"histograms":{"n":{"count":..,"sum":..,"min":..,
  /// "max":..,"p50":..,"p90":..,"p99":..,"buckets":{"12":3,...}}}}.
  /// Buckets are emitted sparsely (nonzero only) so sidecars stay small
  /// while polyinject-stats can still merge them exactly.
  std::string json() const;

  /// A compact aligned "name  value" text table of nonzero entries.
  std::string table() const;

  bool empty() const { return Counters.empty() && Histograms.empty(); }
};

/// The process-wide registry. Thread-safe: lookups/snapshot/reset take
/// the registry mutex; increments through returned references are
/// lock-free (counters) or per-histogram locked.
class MetricsRegistry {
public:
  static MetricsRegistry &get();

  /// The counter/histogram named \p Name, created on first use with the
  /// next free id of its kind. The returned reference stays valid for the
  /// process lifetime.
  Counter &counter(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  MetricsSnapshot snapshot() const;

  /// Renders the current snapshot in the Prometheus text exposition
  /// format: counters as `pinj_<name> <value>` with TYPE comments,
  /// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
  /// `_count`. Metric names are sanitized ('.' and other non-identifier
  /// characters become '_'). Implemented in obs/Exposition.cpp.
  std::string renderExposition() const;

  /// Zeroes every value in place; references stay valid.
  void reset();

private:
  friend class Tally;
  friend class TallyRecord;
  mutable std::mutex Mu;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Histogram> Histograms;
  /// Map entries by id, for naming and finding a tally's entries.
  std::vector<std::pair<const std::string, Counter> *> CountersById;
  std::vector<std::pair<const std::string, Histogram> *> HistogramsById;
};

inline MetricsRegistry &metrics() { return MetricsRegistry::get(); }

/// A tally's nonzero counts and nonempty histograms, bound to their
/// metrics and kept small (histogram buckets past the last used one are
/// dropped), so that many can be stored: a memo entry keeps the counts
/// its miss recorded and a hit replays them.
class TallyRecord {
public:
  TallyRecord() = default;
  explicit TallyRecord(const Tally &T);

  /// Records every count and sample again, into the registry and this
  /// thread's tally, exactly as the original increments and observations
  /// did.
  void replay() const;

private:
  std::vector<std::pair<Counter *, std::uint64_t>> Counts;
  std::vector<std::pair<Histogram *, HistogramSummary>> Samples;
};

} // namespace obs
} // namespace pinj

#endif // POLYINJECT_OBS_METRICS_H
