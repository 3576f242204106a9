//===- perfbench/src/Batch.cpp - cold, validate and tune workloads --------===//
//
// The three one-thread workloads compile a fixed operator set pass after
// pass, each pass in a seeded order, until --seconds have elapsed and the
// workload's minimum number of passes is done. Only whole passes are
// measured, so every run times the same multiset of operators whatever
// the seed and however fast the machine is.
//
//   cold     : 22-operator corpus + the seven Table II suites (239
//              operators), no cache, no tuner, Validate=false.
//   validate : the corpus with Validate=true.
//   tune     : the corpus with tune::Autotuner as the TuningHook (greedy,
//              16 evaluations, Jobs=1, a fresh tuning database per pass).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchUtil.h"
#include "exec/Interpreter.h"
#include "tune/Autotuner.h"

#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace pinj;

std::vector<Kernel> perfbench::corpus() { return tuneBenchCorpus(0); }

std::vector<Kernel> perfbench::suites(const std::vector<std::string> &Names) {
  std::vector<Kernel> Ops;
  for (const std::string &N : Names)
    for (Kernel &K : makeNetworkSuite(N).Operators)
      Ops.push_back(std::move(K));
  return Ops;
}

namespace {

/// The tuning budget of the tune workload: small enough that a corpus
/// pass takes about a second, large enough that greedy search improves
/// some operators.
constexpr std::size_t TuneBudget = 16;
/// A run never measures longer than this, whatever --seconds says, so
/// it ends inside the 180-second limit even on a slow machine.
constexpr double MaxMeasureS = 120;

/// What every pass must reproduce exactly for each operator.
struct Golden {
  std::string Schedules;
  double IslUs = 0, InflUs = 0, TvmUs = 0;
  Schedule Isl, Infl;
};

struct Workload {
  std::vector<Kernel> Ops;
  PipelineOptions Options;
  /// Whole passes every timed run completes; fixes the tail percentile.
  unsigned MinPasses = 1;
  bool Tune = false;
  /// Default-options infl time per operator (tune only): the tuner must
  /// never do worse.
  std::vector<double> DefaultInflUs;
  /// What every pass must reproduce (validate only: the compile without
  /// validation, which validating must not change). Empty: the first
  /// pass sets it.
  std::vector<Golden> Reference;
};

Golden goldenOf(const OperatorReport &Rep) {
  return {serializeSchedule(Rep.Isl.Sched) +
              serializeSchedule(Rep.Novec.Sched) +
              serializeSchedule(Rep.Infl.Sched),
          Rep.Isl.TimeUs, Rep.Infl.TimeUs, Rep.Tvm.TimeUs, Rep.Isl.Sched,
          Rep.Infl.Sched};
}

Workload makeWorkload(const std::string &Name) {
  Workload W;
  W.Ops = corpus();
  if (Name == "cold") {
    for (Kernel &K : suites(allNetworkNames()))
      W.Ops.push_back(std::move(K));
    W.MinPasses = 2;
  } else if (Name == "validate") {
    for (const Kernel &K : W.Ops)
      W.Reference.push_back(goldenOf(runOperator(K, W.Options)));
    W.Options.Validate = true;
    W.MinPasses = 5;
  } else {
    W.Tune = true;
    W.MinPasses = 10;
    for (const Kernel &K : W.Ops)
      W.DefaultInflUs.push_back(runOperator(K, W.Options).Infl.TimeUs);
  }
  return W;
}

/// A fresh tuner (and tuning database) per pass, so every pass searches.
struct PassTuner {
  tune::TuningDb Db;
  std::unique_ptr<tune::Autotuner> Tuner;
  PassTuner(const PassTuner &) = delete;
  PassTuner &operator=(const PassTuner &) = delete;
  PassTuner() {
    tune::Autotuner::Config C;
    C.Strategy = "greedy";
    C.MaxEvaluations = TuneBudget;
    C.Jobs = 1;
    C.Db = &Db;
    Tuner = std::make_unique<tune::Autotuner>(std::move(C));
  }
};

/// Checks one report; a pass after the first must match the first
/// byte for byte.
void checkReport(const Workload &W, std::size_t Op, const OperatorReport &Rep,
                 std::vector<Golden> &Gold, std::vector<bool> &Seen,
                 Result &R) {
  const std::string &Name = W.Ops[Op].Name;
  if (Rep.degraded())
    fail(R, Name + ": degraded (" + Rep.Degradations.front().Config + " at " +
                Rep.Degradations.front().Site + ")");
  if (W.Options.Validate && !Rep.Validated)
    fail(R, Name + ": Validated=false");
  if (W.Tune && Rep.Infl.TimeUs > W.DefaultInflUs[Op])
    fail(R, Name + ": tuned infl time worse than the default");
  if (Rep.Infl.TimeUs <= 0)
    fail(R, Name + ": no simulated infl time");
  Golden G = goldenOf(Rep);
  if (!Seen[Op]) {
    Gold[Op] = std::move(G);
    Seen[Op] = true;
  } else if (G.Schedules != Gold[Op].Schedules ||
             G.IslUs != Gold[Op].IslUs || G.InflUs != Gold[Op].InflUs ||
             G.TvmUs != Gold[Op].TvmUs) {
    fail(R, Name + ": schedules or simulated times differ from the first "
                   "pass or the reference");
  }
}

/// Prints an FNV-1a digest of every operator's serialized schedules, in
/// operator order. The timed and the traced run of a workload print the
/// same digest when they compiled the same schedules.
void printScheduleDigest(const std::vector<Golden> &Gold) {
  std::uint64_t H = 14695981039346656037ULL;
  for (const Golden &G : Gold)
    for (unsigned char C : G.Schedules)
      H = (H ^ C) * 1099511628211ULL;
  std::printf("schedule digest: %016llx (%zu operators)\n",
              static_cast<unsigned long long>(H), Gold.size());
}

PipelineOptions optionsFor(const Workload &W, PassTuner *T) {
  PipelineOptions O = W.Options;
  if (W.Tune)
    O.Tuner = T->Tuner.get();
  return O;
}

void addQualityMetrics(const Workload &W, const std::vector<Golden> &Gold,
                       Result &R) {
  std::vector<double> Infl, Tvm, Tuned;
  for (std::size_t I = 0; I != W.Ops.size(); ++I) {
    Infl.push_back(Gold[I].IslUs / Gold[I].InflUs);
    Tvm.push_back(Gold[I].TvmUs / Gold[I].InflUs);
    Tuned.push_back(W.Tune ? W.DefaultInflUs[I] / Gold[I].InflUs : 1.0);
  }
  R.add("infl_speedup", geomean(Infl), "x", Infl.size());
  R.add("tvm_speedup", geomean(Tvm), "x", Tvm.size());
  R.add("tuned_speedup", geomean(Tuned), "x", Tuned.size());
}

Result timedRun(const Args &A, const Workload &W, double SetupS,
                std::size_t SetupReps) {
  Result R;
  Rng Order(A.Seed);
  std::vector<std::size_t> Perm(W.Ops.size());
  for (std::size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  std::vector<Golden> Gold = W.Reference;
  Gold.resize(W.Ops.size());
  std::vector<bool> Seen(W.Ops.size(), !W.Reference.empty());
  std::vector<double> OpMs;
  double MeasuredMs = 0;
  unsigned Passes = 0;
  while (Passes < W.MinPasses ||
         (MeasuredMs < A.Seconds * 1000 && MeasuredMs < MaxMeasureS * 1000)) {
    Order.shuffle(Perm);
    PassTuner T;
    PipelineOptions O = optionsFor(W, &T);
    for (std::size_t Op : Perm) {
      Clock::time_point T0 = Clock::now();
      OperatorReport Rep = runOperator(W.Ops[Op], O);
      double Ms = msSince(T0);
      OpMs.push_back(Ms);
      MeasuredMs += Ms;
      ++R.Attempted;
      checkReport(W, Op, Rep, Gold, Seen, R);
    }
    ++Passes;
  }

  // Outside the timed window: on cold, every corpus operator's isl and
  // infl schedules must pass the interpreter oracle.
  if (A.Workload == "cold") {
    // The corpus is the first operators of the cold set.
    for (std::size_t I = 0, E = corpus().size(); I != E; ++I)
      if (!scheduleIsSemanticallyEqual(W.Ops[I], Gold[I].Isl) ||
          !scheduleIsSemanticallyEqual(W.Ops[I], Gold[I].Infl))
        fail(R, W.Ops[I].Name + ": schedule fails the interpreter oracle");
  }

  printScheduleDigest(Gold);

  double TailP = tailPercentile(W.MinPasses * W.Ops.size());
  double OpsPerS = OpMs.size() / (MeasuredMs / 1000);
  std::printf("%s: %u passes of %zu operators, %.3f s measured\n",
              A.Workload.c_str(), Passes, W.Ops.size(), MeasuredMs / 1000);
  R.add("setup_s", SetupS, "s", SetupReps);
  R.add("ops_per_s", OpsPerS, "ops/s", OpMs.size());
  R.add("op_p50_ms", percentile(OpMs, 50), "ms", OpMs.size(), "p50");
  R.add("op_tail_ms", percentile(OpMs, TailP), "ms", OpMs.size(),
        percentileName(TailP));
  addQualityMetrics(W, Gold, R);
  // One closed-loop client: each operator is due when the previous one
  // finishes, so request latency is operator wall time and the highest
  // sustainable rate is the completion rate.
  R.add("lat_p50_ms", percentile(OpMs, 50), "ms", OpMs.size(), "p50");
  R.add("lat_tail_ms", percentile(OpMs, TailP), "ms", OpMs.size(),
        percentileName(TailP));
  R.add("max_rps", OpsPerS, "req/s", OpMs.size());
  R.add("rss_mb", peakRssMb(), "MB");
  return R;
}

Result tracedRun(const Args &A, const Workload &W) {
  Result R;
  LayerLog Log;
  Rng Order(A.Seed);
  std::vector<std::size_t> Perm(W.Ops.size());
  for (std::size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  std::vector<Golden> Gold = W.Reference;
  Gold.resize(W.Ops.size());
  std::vector<bool> Seen(W.Ops.size(), !W.Reference.empty());
  double UntracedMs = 0, TracedMs = 0, Evaluations = 0;
  Clock::time_point Start = Clock::now();
  while (Log.Passes == 0 || (msSince(Start) < A.Seconds * 1000 &&
                             msSince(Start) < MaxMeasureS * 1000)) {
    Order.shuffle(Perm);
    // Separate tuners for the untraced and the replayed compile, so the
    // replay's search is not answered from the other's database.
    PassTuner Untraced, Replay;
    PipelineOptions O = optionsFor(W, &Untraced);
    for (std::size_t N = 0; N != Perm.size(); ++N) {
      const Kernel &K = W.Ops[Perm[N]];
      OperatorReport Rep;
      Replayed Rp;
      auto RunUntraced = [&] {
        Clock::time_point T0 = Clock::now();
        Rep = runOperator(K, O);
        UntracedMs += msSince(T0);
      };
      auto RunTraced = [&] {
        Clock::time_point T0 = Clock::now();
        PipelineOptions Inner = W.Options;
        if (W.Tune) {
          TunedConfig Chosen;
          std::uint64_t Evals0 =
              obs::metrics().counter("tune.evaluations").value();
          Log.time("tune.search",
                   [&] { return Replay.Tuner->tune(K, Inner, Chosen); });
          Evaluations +=
              obs::metrics().counter("tune.evaluations").value() - Evals0;
        }
        Rp = replayStages(K, Inner, nullptr, Log);
        TracedMs += msSince(T0);
      };
      // Alternate which side runs first so neither always runs warm.
      if (N % 2) {
        RunTraced();
        RunUntraced();
      } else {
        RunUntraced();
        RunTraced();
      }
      ++R.Attempted;
      // The untraced compile gets the timed run's checks; the replay must
      // then equal it.
      checkReport(W, Perm[N], Rep, Gold, Seen, R);
      std::string Diff = compareReplay(Rp, Rep);
      if (!Diff.empty())
        fail(R, K.Name + ": traced replay differs from runOperator: " + Diff);
    }
    ++Log.Passes;
  }
  printScheduleDigest(Gold);
  if (W.Tune)
    Log.Counts["tune.evaluations"] = Evaluations;
  reportLayers(Log, UntracedMs, TracedMs, R);
  // The service layer has no workload of its own in BENCHMARK.json (see
  // README.md); cold's traced run measures it.
  if (A.Workload == "cold")
    traceService(A, R);
  if (W.Tune)
    R.add("tune.eval_ms",
          Evaluations > 0 ? Log.totalMs("tune.search") / Evaluations : 0,
          "ms", static_cast<std::size_t>(Evaluations));
  return R;
}

} // namespace

Result perfbench::runBatch(const Args &A) {
  Workload W;
  std::size_t Reps = 0;
  double SetupS = timeSetup([&] { W = makeWorkload(A.Workload); }, Reps);
  return A.Trace ? tracedRun(A, W) : timedRun(A, W, SetupS, Reps);
}
