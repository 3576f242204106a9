//===- perfbench/src/Bench.h - Shared benchmark declarations ----*- C++ -*-===//
//
// The repository benchmark: the cold, validate and tune workloads of
// BENCHMARK.json, each run either timed (end-to-end metrics, nothing
// traced) or traced (per-layer metrics, every stage call timed from
// outside). See perfbench/README.md for the metric definitions, why each
// workload exists and why serve is not one of them.
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_PERFBENCH_BENCH_H
#define POLYINJECT_PERFBENCH_BENCH_H

#include "pipeline/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point From) {
  return std::chrono::duration<double, std::milli>(Clock::now() - From)
      .count();
}

/// Command-line arguments every workload receives.
struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// One reported metric. Count is the number of samples the value was
/// derived from (0 when it is not a sample statistic); Note names the
/// percentile a tail metric reports.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::size_t Count = 0;
  std::string Note;
};

/// What one run prints as its final JSON line.
struct Result {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit,
           std::size_t Count = 0, std::string Note = std::string()) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit), Count,
                       std::move(Note)});
  }
};

/// Records one failed operation: counts it and prints the reason (the
/// first few only, so a systematic fault does not flood the output).
void fail(Result &R, const std::string &Why);

//===- Statistics (Stats.cpp) ---------------------------------------------===//

/// Linear-interpolated percentile (0..100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// The highest of p90/p95/p99/p99.9 that leaves at least ten of
/// \p MinSamples samples beyond it (p50 when none does). Workloads pass
/// the sample count every run is guaranteed to reach, so the reported
/// percentile is the same on every run.
double tailPercentile(std::size_t MinSamples);
std::string percentileName(double P);
/// Peak resident set size of this process in MB (VmHWM).
double peakRssMb();

/// Runs \p Setup at least 5 times and for at least 0.5 s in all, keeping
/// the last result, and returns the median wall time in seconds; \p Reps
/// receives the repetition count. Set-up is repeated so setup_s is a
/// median, not one noisy sample, and so a set-up of a few milliseconds
/// is not timed only while the process is starting up.
double timeSetup(const std::function<void()> &Setup, std::size_t &Reps);

//===- Workload corpora (Batch.cpp) ---------------------------------------===//

/// The 22-operator corpus (bench/BenchUtil.h tuneBenchCorpus).
std::vector<pinj::Kernel> corpus();
/// Operators of the named Table II suites, in suite order.
std::vector<pinj::Kernel> suites(const std::vector<std::string> &Names);

/// Deterministic xorshift64* generator; the only source of randomness.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1DULL;
  }
  /// Uniform in [0, 1).
  double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }
  template <class T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }
};

//===- Stage replay (Trace.cpp) -------------------------------------------===//

/// Per-layer measurements of a traced run: per-call times by layer and
/// counter deltas, accumulated over a number of passes.
struct LayerLog {
  std::map<std::string, std::vector<double>> CallMs;
  std::map<std::string, double> Counts;
  unsigned Passes = 0;

  /// Times \p Fn as one call of \p Layer.
  template <class F> decltype(auto) time(const char *Layer, F &&Fn) {
    struct Stop {
      LayerLog &L;
      const char *Layer;
      Clock::time_point T0 = Clock::now();
      ~Stop() { L.CallMs[Layer].push_back(msSince(T0)); }
    } S{*this, Layer};
    return Fn();
  }
  double totalMs(const std::string &Layer) const;
  /// Sum of every stage layer (the layers runOperator's wall time is
  /// reconciled against; separately measured probes are excluded).
  double stageTotalMs() const;
};

/// What one replayed operator produced; compared with runOperator's
/// report to prove the replay measured the same work.
struct Replayed {
  pinj::Schedule Isl, Novec, Infl;
  double IslUs = 0, NovecUs = 0, InflUs = 0, TvmUs = 0;
  bool Influenced = false, VecEligible = false, Validated = false;
};

/// Replays runOperator's stages for \p K under \p O (no tuner), calling
/// the same public functions in the same order, each timed into \p Log.
/// With \p Hit the scheduling phase is replaced by the cached schedules,
/// as on a compilation-cache hit.
Replayed replayStages(const pinj::Kernel &K, const pinj::PipelineOptions &O,
                      const pinj::CachedCompilation *Hit, LayerLog &Log);

/// Compares a replay with runOperator's report; empty when equal.
std::string compareReplay(const Replayed &R, const pinj::OperatorReport &Rep);

/// Prints the per-layer table and adds each layer's total per pass (and
/// each counter) to \p Out.
void addLayers(const LayerLog &Log, Result &Out);

/// addLayers plus the reconciliation: \p UntracedMs is the runOperator
/// wall time of the replayed operations, \p TracedMs the replay's own.
void reportLayers(const LayerLog &Log, double UntracedMs, double TracedMs,
                  Result &Out);

//===- Workloads ----------------------------------------------------------===//

Result runBatch(const Args &A);
/// The service layer's per-layer metrics (ir.parse, service.*, loadgen.*)
/// from a zipfian request stream through an in-process daemon (Serve.cpp),
/// for the traced run of cold.
void traceService(const Args &A, Result &Out);

} // namespace perfbench

#endif // POLYINJECT_PERFBENCH_BENCH_H
