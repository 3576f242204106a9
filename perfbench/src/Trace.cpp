//===- perfbench/src/Trace.cpp - Stage replay for the traced run ----------===//
//
// The traced run measures each layer from outside: it replays one
// operator's compilation by calling the same public functions runOperator
// calls, in the same order and with the same options, and times each
// call. Counter deltas are read from obs::metrics() around the calls.
// Only the healthy path is replayed; an operator that degrades under
// runOperator is already a failed operation, and compareReplay reports
// the mismatch.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "obs/Metrics.h"
#include "poly/Dependence.h"
#include "target/Target.h"

#include <cstdio>

using namespace perfbench;
using namespace pinj;

namespace {

/// Counters attributed to the scheduling layer.
const char *const SchedCounters[] = {"lp.ilp_solves", "lp.simplex_pivots",
                                     "lp.ilp_nodes",
                                     "sched.farkas_cache_hits"};

/// Adds the delta of each named counter across \p Fn to \p Log.Counts.
template <class F>
decltype(auto) counted(LayerLog &Log,
                       std::initializer_list<const char *> Names, F &&Fn) {
  std::vector<std::uint64_t> Before;
  for (const char *N : Names)
    Before.push_back(obs::metrics().counter(N).value());
  struct Diff {
    LayerLog &Log;
    std::initializer_list<const char *> Names;
    std::vector<std::uint64_t> &Before;
    ~Diff() {
      std::size_t I = 0;
      for (const char *N : Names)
        Log.Counts[N] += obs::metrics().counter(N).value() - Before[I++];
    }
  } D{Log, Names, Before};
  return Fn();
}

SchedulerResult timedSchedule(const char *Layer, const Kernel &K,
                              const SchedulerOptions &O,
                              const InfluenceTree *Tree, LayerLog &Log) {
  return counted(Log,
                 {SchedCounters[0], SchedCounters[1], SchedCounters[2],
                  SchedCounters[3]},
                 [&] {
                   return Log.time(Layer,
                                   [&] { return scheduleKernel(K, O, Tree); });
                 });
}

/// runOperator's simulateGuarded on the healthy path: the backend check,
/// mapping, then the target simulation.
double simulate(const Kernel &K, const Schedule &S, const PipelineOptions &O,
                LayerLog &Log) {
  bool Accepts =
      Log.time("codegen.map", [&] { return isSimulatableSchedule(K, S); });
  if (!Accepts)
    return 0;
  MappedKernel Mk =
      Log.time("codegen.map", [&] { return mapToGpu(K, S, O.Mapping); });
  KernelSim Sim = counted(Log, {"gpusim.transactions"}, [&] {
    return Log.time("target.sim",
                    [&] { return target::simulateForOptions(Mk, O); });
  });
  Log.Counts["target.sim_calls"] += 1;
  return Sim.TimeUs;
}

bool sameTransforms(const Schedule &A, const Schedule &B) {
  if (A.Transforms.size() != B.Transforms.size())
    return false;
  for (unsigned S = 0, E = A.Transforms.size(); S != E; ++S)
    if (!(A.Transforms[S] == B.Transforms[S]))
      return false;
  return true;
}

/// The layers whose calls make up runOperator's work. Everything else in
/// CallMs (poly.deps, ir.parse, service.fingerprint) is a separate probe
/// of work these calls or the daemon already do.
const char *const StageLayers[] = {
    "sched.isl",    "sched.infl",   "influence.tree", "codegen.vectorize",
    "codegen.map",  "target.sim",   "baselines.tvm",  "exec.validate",
    "service.lookup", "service.store", "tune.search"};

} // namespace

double LayerLog::totalMs(const std::string &Layer) const {
  auto It = CallMs.find(Layer);
  double Sum = 0;
  if (It != CallMs.end())
    for (double Ms : It->second)
      Sum += Ms;
  return Sum;
}

double LayerLog::stageTotalMs() const {
  double Sum = 0;
  for (const char *L : StageLayers)
    Sum += totalMs(L);
  return Sum;
}

Replayed perfbench::replayStages(const Kernel &K, const PipelineOptions &O,
                                 const CachedCompilation *Hit, LayerLog &Log) {
  Replayed R;
  // isl: reference scheduling with SCCs serialized.
  Schedule IslSched;
  if (Hit) {
    IslSched = Hit->Isl;
  } else {
    // Dependence analysis runs inside every scheduleKernel call; it is
    // timed by one separate call per scheduled operator and reported
    // beside the stages, not summed with them.
    DependenceOptions DepOptions;
    DepOptions.IncludeInput = O.Sched.ProximityIncludesInput;
    Log.time("poly.deps", [&] { return computeDependences(K, DepOptions); });
    SchedulerOptions IslOptions = O.Sched;
    IslOptions.SerializeSccs = true;
    IslSched = timedSchedule("sched.isl", K, IslOptions, nullptr, Log).Sched;
    Log.time("codegen.vectorize", [&] {
      return finalizeVectorMarks(K, IslSched, /*DisableVectorization=*/true);
    });
    if (!Log.time("codegen.map",
                  [&] { return isSimulatableSchedule(K, IslSched); }))
      IslSched = originalSchedule(K);
  }
  R.Isl = IslSched;
  R.IslUs = simulate(K, IslSched, O, Log);

  // novec: influenced scheduling over the influence tree.
  Schedule InflSched;
  if (Hit) {
    InflSched = Hit->Novec;
    R.Influenced = Hit->Influenced;
    R.Novec = Hit->Novec;
  } else {
    InfluenceTree Tree = Log.time(
        "influence.tree", [&] { return buildInfluenceTree(K, O.Influence); });
    SchedulerOptions Sched = O.Sched;
    Sched.SerializeSccs = false;
    InflSched = timedSchedule("sched.infl", K, Sched, &Tree, Log).Sched;
    if (!Log.time("codegen.map",
                  [&] { return isSimulatableSchedule(K, InflSched); }))
      InflSched = IslSched;
    R.Influenced = !sameTransforms(InflSched, IslSched);
    R.Novec = InflSched;
    Log.time("codegen.vectorize", [&] {
      return finalizeVectorMarks(K, R.Novec, /*DisableVectorization=*/true);
    });
  }
  R.NovecUs = simulate(K, R.Novec, O, Log);

  // infl: the influenced schedule with explicit vector marks.
  if (Hit) {
    R.Infl = Hit->Infl;
    R.VecEligible = Hit->VecEligible;
  } else {
    R.Infl = InflSched;
    R.VecEligible = Log.time("codegen.vectorize", [&] {
      return finalizeVectorMarks(K, R.Infl, /*DisableVectorization=*/false);
    }) > 0;
  }
  R.InflUs = simulate(K, R.Infl, O, Log);

  R.TvmUs = Log.time("baselines.tvm", [&] {
    return O.Target ? simulateTvmProxy(K, *O.Target, O.Mapping)
                    : simulateTvmProxy(K, O.Gpu, O.Mapping);
  }).TimeUs;

  if (O.Validate)
    R.Validated = Log.time("exec.validate", [&] {
      return scheduleIsSemanticallyEqual(K, IslSched) &&
             scheduleIsSemanticallyEqual(K, R.Infl);
    });
  return R;
}

std::string perfbench::compareReplay(const Replayed &R,
                                     const OperatorReport &Rep) {
  auto Sched = [](const char *Config, const Schedule &A, const Schedule &B) {
    return serializeSchedule(A) == serializeSchedule(B)
               ? std::string()
               : std::string(Config) + " schedule differs; ";
  };
  auto Time = [](const char *Config, double A, double B) {
    return A == B ? std::string()
                  : std::string(Config) + " simulated time differs; ";
  };
  std::string Diff = Sched("isl", R.Isl, Rep.Isl.Sched) +
                     Sched("novec", R.Novec, Rep.Novec.Sched) +
                     Sched("infl", R.Infl, Rep.Infl.Sched) +
                     Time("isl", R.IslUs, Rep.Isl.TimeUs) +
                     Time("novec", R.NovecUs, Rep.Novec.TimeUs) +
                     Time("infl", R.InflUs, Rep.Infl.TimeUs) +
                     Time("tvm", R.TvmUs, Rep.Tvm.TimeUs);
  if (R.Influenced != Rep.Influenced || R.VecEligible != Rep.VecEligible ||
      R.Validated != Rep.Validated)
    Diff += "influenced/vectorizable/validated flags differ; ";
  return Diff;
}

void perfbench::addLayers(const LayerLog &Log, Result &Out) {
  const double Passes = Log.Passes ? Log.Passes : 1;
  std::printf("\nper-layer (%u traced passes; totals are per pass)\n",
              Log.Passes);
  std::printf("%-22s %10s %12s %12s\n", "layer", "calls", "p50_ms/call",
              "total_ms");
  for (const auto &[Layer, Calls] : Log.CallMs) {
    std::printf("%-22s %10zu %12.4f %12.3f\n", Layer.c_str(), Calls.size(),
                median(Calls), Log.totalMs(Layer) / Passes);
    // The service layer's calls take microseconds.
    bool Us = Layer.rfind("service.", 0) == 0;
    Out.add(Layer + (Us ? "_us" : "_ms"),
            (Us ? 1000 : 1) * Log.totalMs(Layer) / Passes, Us ? "us" : "ms",
            Calls.size());
  }
  for (const auto &[Name, Count] : Log.Counts) {
    std::printf("%-22s %10s %12s %12.0f\n", Name.c_str(), "-", "-",
                Count / Passes);
    Out.add(Name, Count / Passes, "count");
  }
}

void perfbench::reportLayers(const LayerLog &Log, double UntracedMs,
                             double TracedMs, Result &Out) {
  const double Passes = Log.Passes ? Log.Passes : 1;
  addLayers(Log, Out);

  // Reconciliation: runOperator's wall time against the sum of the
  // stage calls that replay it, and the traced replay's own wall time
  // against the untraced runOperator calls.
  double Stages = Log.stageTotalMs();
  double Unattributed = UntracedMs - Stages;
  std::printf("reconciliation: runOperator %.3f ms/pass, stage calls %.3f "
              "ms/pass, unattributed %.3f ms/pass (%.2f%%), traced replay "
              "%.3f ms/pass (overhead %.2f%%)\n",
              UntracedMs / Passes, Stages / Passes, Unattributed / Passes,
              UntracedMs > 0 ? 100 * Unattributed / UntracedMs : 0,
              TracedMs / Passes,
              UntracedMs > 0 ? 100 * (TracedMs - UntracedMs) / UntracedMs
                             : 0);
  Out.add("pipeline.unattributed_ms", Unattributed / Passes, "ms");
  Out.add("pipeline.unattributed_pct",
          UntracedMs > 0 ? 100 * Unattributed / UntracedMs : 0, "%");
  Out.add("trace.overhead_pct",
          UntracedMs > 0 ? 100 * (TracedMs - UntracedMs) / UntracedMs : 0,
          "%");
}
