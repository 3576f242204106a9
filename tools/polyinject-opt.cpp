//===- tools/polyinject-opt.cpp - Command-line driver ----------------------===//
//
// Reads a fused operator in the textual format of ir/Parser.h and runs
// the full pipeline, printing the requested artifacts.
//
// Usage:
//   polyinject-opt [options] kernel.pinj [more.pinj ...]
//     --config=isl|tvm|novec|infl|all   configurations to run (default all)
//     --print=schedule,cuda,ast,tree,deps,sim   artifacts (default
//                                               schedule,sim)
//     --validate                        execute and compare semantics
//     --feautrier                       enable the Feautrier fallback
//     --max-pivots=N                    cap simplex pivots per operator
//     --max-nodes=N                     cap branch-and-bound nodes
//     --deadline-ms=X                   whole-operator wall-clock budget
//     --trace-json=FILE                 write a Chrome trace-event file
//                                       (open in chrome://tracing)
//     --metrics-json=FILE               write the per-operator metrics
//                                       sidecar
//     --journal=FILE                    write the structured event
//                                       journal (JSONL, one record per
//                                       line; obs/Journal.h)
//     --metrics-exposition=FILE         write the process metrics in the
//                                       Prometheus text exposition
//                                       format at exit
//     --metrics-interval-ms=N           also rewrite the exposition file
//                                       every N ms while running
//                                       (requires --metrics-exposition)
//     --stats                           print the process metrics table
//     --target=NAME|FILE.ptgt           backend target: a built-in name
//                                       (v100, a100, p100, cpu-simd;
//                                       default v100) or a calibrated
//                                       .ptgt file (polyinject-calibrate)
//
// Autotuning (tune/Autotuner.h — search pipeline knobs against the
// simulated cost model; never selects a config the model scores worse
// than the default):
//     --autotune=STRATEGY               exhaustive|greedy|anneal|
//                                       surrogate (surrogate needs
//                                       --tune-model)
//     --tune-budget=N                   candidate evaluations per
//                                       operator (default 64)
//     --tune-seed=N                     seed for stochastic strategies
//                                       (default 1)
//     --tune-space=NAME                 search space: default|tiny
//     --tuning-db=FILE                  persistent winning-config store;
//                                       warm runs replay without
//                                       re-searching
//     --tune-model=FILE                 trained cost model
//                                       (polyinject-train) for the
//                                       surrogate strategy
//     --tune-topk=N                     candidates the surrogate
//                                       gpusim-evaluates per operator
//                                       (default 8)
//
// Compilation service (batch mode — entered when more than one kernel
// file is given, or --ops-file is used):
//     --jobs=N                          worker threads (default 1)
//     --cache-dir=PATH                  persistent schedule cache
//                                       directory (also honored in
//                                       single-kernel mode)
//     --ops-file=FILE                   operator list, one .pinj path
//                                       per line relative to FILE
//
// Batch stdout is deterministic: reports are printed in submission
// order and contain only analytic results, so the bytes are identical
// for any --jobs value. Wall-clock timing goes to stderr.
//
// POLYINJECT_TRACE=1 in the environment prints the human-readable span
// trace on stderr.
//
//===----------------------------------------------------------------------===//

#include "codegen/Ast.h"
#include "exec/Interpreter.h"
#include "influence/TreeBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Exposition.h"
#include "obs/Journal.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Trace.h"
#include "lp/Budget.h"
#include "pipeline/Pipeline.h"
#include "poly/Dependence.h"
#include "model/GbStumps.h"
#include "service/BatchCompiler.h"
#include "service/Cache.h"
#include "support/Status.h"
#include "target/Target.h"
#include "tune/Autotuner.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

using namespace pinj;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--config=isl|tvm|novec|infl|all] "
      "[--print=schedule,cuda,ast,tree,deps,sim] [--validate] "
      "[--feautrier] [--max-pivots=N] [--max-nodes=N] [--deadline-ms=X] "
      "[--trace-json=FILE] [--metrics-json=FILE] [--journal=FILE] "
      "[--metrics-exposition=FILE] [--metrics-interval-ms=N] [--stats] "
      "[--target=NAME|FILE.ptgt] "
      "[--autotune=exhaustive|greedy|anneal|surrogate] [--tune-budget=N] "
      "[--tune-seed=N] [--tune-space=default|tiny] [--tuning-db=FILE] "
      "[--tune-model=FILE] [--tune-topk=N] "
      "[--jobs=N] [--cache-dir=PATH] [--ops-file=FILE] "
      "kernel.pinj [more.pinj ...]\n",
      Argv0);
}

std::set<std::string> splitList(const std::string &Text) {
  std::set<std::string> Items;
  std::stringstream In(Text);
  std::string Item;
  while (std::getline(In, Item, ','))
    Items.insert(Item);
  return Items;
}

void printConfig(const Kernel &K, const char *Name, const ConfigResult &R,
                 const std::set<std::string> &Artifacts,
                 const PipelineOptions &Options) {
  std::printf("==== %s ====\n", Name);
  if (Artifacts.count("schedule"))
    std::printf("%s", R.Sched.str(K).c_str());
  // Codegen artifacts can fail on a degraded schedule (the original
  // program order is not always expressible as one fused launch); note
  // it instead of dying.
  try {
    if (Artifacts.count("ast")) {
      MappedKernel M = mapToGpu(K, R.Sched, Options.Mapping);
      std::printf("%s", printAst(M).c_str());
    }
    if (Artifacts.count("cuda"))
      std::printf("%s", renderCuda(K, R.Sched, Options.Mapping).c_str());
  } catch (const RecoverableError &E) {
    std::printf("<no generated code: %s>\n", E.status().str().c_str());
  }
  if (Artifacts.count("sim"))
    std::printf("time %.3f us | transactions %.0f | bytes moved %.0f "
                "(useful %.0f, efficiency %.0f%%)\n",
                R.TimeUs, R.Sim.Transactions, R.Sim.TransactionBytes,
                R.Sim.UsefulBytes, R.Sim.efficiency() * 100);
  std::printf("\n");
}

/// Reads one kernel file; exits the process with a diagnostic on
/// failure (both modes treat an unreadable/unparsable input as fatal).
Kernel loadKernel(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    std::exit(1);
  }
  std::string Error;
  std::optional<Kernel> K = parseKernel(Text, Error);
  if (!K) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
    std::exit(1);
  }
  std::string Diag = K->verify();
  if (!Diag.empty()) {
    std::fprintf(stderr, "%s: malformed kernel: %s\n", Path.c_str(),
                 Diag.c_str());
    std::exit(1);
  }
  return std::move(*K);
}

/// Expands an --ops-file list: one path per line, '#' comments,
/// relative paths resolved against the list file's directory.
std::vector<std::string> readOpsFile(const std::string &ListPath) {
  std::ifstream In(ListPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", ListPath.c_str());
    std::exit(1);
  }
  std::filesystem::path Base =
      std::filesystem::path(ListPath).parent_path();
  std::vector<std::string> Paths;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos)
      continue;
    size_t Last = Line.find_last_not_of(" \t\r");
    std::string Entry = Line.substr(First, Last - First + 1);
    std::filesystem::path P(Entry);
    Paths.push_back(P.is_absolute() ? P.string() : (Base / P).string());
  }
  return Paths;
}

/// Writes the current process metrics in the exposition format to
/// \p Path. \returns false on I/O failure.
bool writeExpositionFile(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << obs::metrics().renderExposition();
  Out.close();
  return static_cast<bool>(Out);
}

/// Writes the Chrome trace to \p Path and validates it (parse back,
/// require a non-empty traceEvents array) so CTest can rely on the exit
/// code. \returns false on I/O failure or an invalid file.
bool writeTraceChecked(const std::string &Path) {
  std::string Error;
  if (!obs::tracer().writeJson(Path, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  std::string Trace;
  readFile(Path, Trace); // An unreadable file fails the parse below.
  std::optional<obs::json::Value> Parsed = obs::json::parse(Trace, Error);
  const obs::json::Value *Events =
      Parsed ? Parsed->find("traceEvents") : nullptr;
  if (!Parsed || !Events || !Events->isArray() || Events->Items.empty()) {
    std::fprintf(stderr, "error: invalid trace file %s: %s\n",
                 Path.c_str(),
                 Error.empty() ? "missing traceEvents" : Error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %zu trace events to %s\n",
               Events->Items.size(), Path.c_str());
  return true;
}

/// Runs the end-of-process observability flushes on every return path:
/// the final exposition snapshot (via the periodic writer's stop when
/// one is running, directly otherwise) and the journal file sink.
class ObsFinalizer {
public:
  ObsFinalizer(obs::ExpositionWriter &Writer, std::string ExpositionPath)
      : Writer(Writer), ExpositionPath(std::move(ExpositionPath)) {}
  ~ObsFinalizer() {
    if (Writer.running())
      Writer.stop();
    else if (!ExpositionPath.empty() &&
             !writeExpositionFile(ExpositionPath))
      std::fprintf(stderr, "error: cannot write %s\n",
                   ExpositionPath.c_str());
    obs::Journal::get().closeFile();
  }

private:
  obs::ExpositionWriter &Writer;
  std::string ExpositionPath;
};

/// Batch mode: compiles every kernel through the service worker pool
/// and prints reports in submission order. Stdout is deterministic for
/// any --jobs value; wall-clock timing goes to stderr.
int runBatch(const std::vector<std::string> &Paths,
             PipelineOptions Options, unsigned Jobs, bool CacheEnabled,
             const std::set<std::string> &Artifacts,
             const std::string &ConfigArg, bool Stats,
             const std::string &MetricsJsonPath) {
  std::vector<service::BatchJob> Batch;
  Batch.reserve(Paths.size());
  for (const std::string &P : Paths)
    Batch.push_back(service::BatchJob{loadKernel(P)});

  obs::ReportSink Sink;
  if (!MetricsJsonPath.empty())
    Options.Sink = &Sink;

  // The worker count must stay off stdout: batch stdout is specified to
  // be byte-identical for any --jobs value.
  std::printf("batch of %zu operators\n\n", Batch.size());
  auto Start = std::chrono::steady_clock::now();
  service::BatchCompiler Compiler(Options, Jobs);
  service::BatchResult Result = Compiler.run(Batch);
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  bool All = ConfigArg == "all";
  std::size_t Influenced = 0, Vectorizable = 0;
  for (std::size_t I = 0; I != Result.Reports.size(); ++I) {
    const OperatorReport &R = Result.Reports[I];
    const Kernel &K = Batch[I].K;
    std::printf("==== operator %s (%s) ====\n", R.Name.c_str(),
                Paths[I].c_str());
    if (All || ConfigArg == "isl")
      printConfig(K, "isl", R.Isl, Artifacts, Options);
    if (All || ConfigArg == "novec")
      printConfig(K, "novec", R.Novec, Artifacts, Options);
    if (All || ConfigArg == "infl")
      printConfig(K, "infl", R.Infl, Artifacts, Options);
    if (All || ConfigArg == "tvm")
      std::printf("==== tvm (per-statement launches) ====\ntime %.3f us "
                  "over %u launches\n\n",
                  R.Tvm.TimeUs, R.Tvm.Launches);
    // tuned= shows the chosen encoding only: whether it came from the
    // database or a fresh search can differ between workers racing on a
    // shared database, and batch stdout must stay deterministic.
    std::string TunedNote;
    if (R.Tuned)
      TunedNote = " tuned=" + R.Tuning.Encoding;
    std::printf("summary: influenced=%s vectorizable=%s "
                "speedup(infl/isl)=%.2fx%s%s\n",
                R.Influenced ? "yes" : "no", R.VecEligible ? "yes" : "no",
                R.Infl.TimeUs > 0 ? R.Isl.TimeUs / R.Infl.TimeUs : 0.0,
                !CacheEnabled   ? ""
                : R.CacheHit    ? " cache=hit"
                                : " cache=miss",
                TunedNote.c_str());
    if (R.degraded()) {
      std::printf("degradations (%zu):\n", R.Degradations.size());
      for (const DegradationEvent &E : R.Degradations)
        std::printf("  %-8s %s at %s: %s\n", E.Config.c_str(),
                    statusCodeName(E.Code), E.Site.c_str(),
                    E.Detail.c_str());
    }
    std::printf("\n");
    Influenced += R.Influenced ? 1 : 0;
    Vectorizable += R.VecEligible ? 1 : 0;
  }
  std::printf("batch summary: %zu operators, %zu influenced, "
              "%zu vectorizable, %zu degraded",
              Result.Reports.size(), Influenced, Vectorizable,
              Result.degraded());
  if (CacheEnabled)
    std::printf(", %zu cache hits", Result.hits());
  std::printf("\n");
  // Timing is the one nondeterministic quantity; keep it off stdout so
  // batch output stays byte-identical across --jobs values.
  std::fprintf(stderr, "batch wall time: %.1f ms (jobs=%u)\n", WallMs,
               Jobs);

  if (Stats)
    std::printf("\n==== process metrics ====\n%s",
                obs::metrics().snapshot().table().c_str());
  std::string Error;
  if (!MetricsJsonPath.empty() &&
      !Sink.writeJson(MetricsJsonPath, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Options.Validate)
    for (const OperatorReport &R : Result.Reports)
      if (!R.Validated)
        return 1;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ConfigArg = "all";
  std::set<std::string> Artifacts = {"schedule", "sim"};
  bool Validate = false;
  bool Feautrier = false;
  bool Stats = false;
  SolverBudget Budget;
  std::string TraceJsonPath;
  std::string MetricsJsonPath;
  std::string JournalPath;
  std::string ExpositionPath;
  unsigned MetricsIntervalMs = 0;
  std::string CacheDir;
  std::string OpsFilePath;
  std::string TargetSpec;
  std::string AutotuneStrategy;
  std::string TuneSpaceName = "default";
  std::string TuningDbPath;
  std::uint64_t TuneSeed = 1;
  std::size_t TuneBudget = 64;
  std::string TuneModelPath;
  std::size_t TuneTopK = 8;
  unsigned Jobs = 1;
  std::vector<std::string> Paths;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--config=", 9) == 0) {
      ConfigArg = Arg + 9;
    } else if (std::strncmp(Arg, "--print=", 8) == 0) {
      Artifacts = splitList(Arg + 8);
    } else if (std::strcmp(Arg, "--validate") == 0) {
      Validate = true;
    } else if (std::strcmp(Arg, "--feautrier") == 0) {
      Feautrier = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      Stats = true;
    } else if (std::strncmp(Arg, "--max-pivots=", 13) == 0) {
      Budget.MaxPivots = std::strtoull(Arg + 13, nullptr, 10);
    } else if (std::strncmp(Arg, "--max-nodes=", 12) == 0) {
      Budget.MaxIlpNodes = std::strtoull(Arg + 12, nullptr, 10);
    } else if (std::strncmp(Arg, "--deadline-ms=", 14) == 0) {
      Budget.WallMs = std::strtod(Arg + 14, nullptr);
    } else if (std::strncmp(Arg, "--jobs=", 7) == 0) {
      Jobs = static_cast<unsigned>(std::strtoul(Arg + 7, nullptr, 10));
      if (Jobs == 0) {
        std::fprintf(stderr, "error: --jobs needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      CacheDir = Arg + 12;
      if (CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir needs a path\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--ops-file=", 11) == 0) {
      OpsFilePath = Arg + 11;
      if (OpsFilePath.empty()) {
        std::fprintf(stderr, "error: --ops-file needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--target=", 9) == 0) {
      TargetSpec = Arg + 9;
    } else if (std::strncmp(Arg, "--autotune=", 11) == 0) {
      AutotuneStrategy = Arg + 11;
    } else if (std::strncmp(Arg, "--tune-budget=", 14) == 0) {
      TuneBudget = std::strtoull(Arg + 14, nullptr, 10);
      if (TuneBudget == 0) {
        std::fprintf(stderr,
                     "error: --tune-budget needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--tune-seed=", 12) == 0) {
      TuneSeed = std::strtoull(Arg + 12, nullptr, 10);
    } else if (std::strncmp(Arg, "--tune-space=", 13) == 0) {
      TuneSpaceName = Arg + 13;
    } else if (std::strncmp(Arg, "--tune-model=", 13) == 0) {
      TuneModelPath = Arg + 13;
      if (TuneModelPath.empty()) {
        std::fprintf(stderr, "error: --tune-model needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--tune-topk=", 12) == 0) {
      TuneTopK = std::strtoull(Arg + 12, nullptr, 10);
      if (TuneTopK == 0) {
        std::fprintf(stderr, "error: --tune-topk needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--tuning-db=", 12) == 0) {
      TuningDbPath = Arg + 12;
      if (TuningDbPath.empty()) {
        std::fprintf(stderr, "error: --tuning-db needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--trace-json=", 13) == 0) {
      TraceJsonPath = Arg + 13;
      if (TraceJsonPath.empty()) {
        std::fprintf(stderr, "error: --trace-json needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--metrics-json=", 15) == 0) {
      MetricsJsonPath = Arg + 15;
      if (MetricsJsonPath.empty()) {
        std::fprintf(stderr, "error: --metrics-json needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--journal=", 10) == 0) {
      JournalPath = Arg + 10;
      if (JournalPath.empty()) {
        std::fprintf(stderr, "error: --journal needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--metrics-exposition=", 21) == 0) {
      ExpositionPath = Arg + 21;
      if (ExpositionPath.empty()) {
        std::fprintf(stderr,
                     "error: --metrics-exposition needs a file name\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--metrics-interval-ms=", 22) == 0) {
      MetricsIntervalMs =
          static_cast<unsigned>(std::strtoul(Arg + 22, nullptr, 10));
      if (MetricsIntervalMs == 0) {
        std::fprintf(stderr,
                     "error: --metrics-interval-ms needs a positive "
                     "interval\n");
        return 2;
      }
    } else if (Arg[0] == '-') {
      printUsage(Argv[0]);
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (!OpsFilePath.empty())
    for (std::string &P : readOpsFile(OpsFilePath))
      Paths.push_back(std::move(P));
  if (Paths.empty()) {
    printUsage(Argv[0]);
    return 2;
  }
  if (!TraceJsonPath.empty()) {
    obs::tracer().enable(obs::Tracer::Json);
    // Degradation paths rewrite the file mid-run, so a crashed or killed
    // compilation still leaves a loadable trace.
    obs::tracer().setAutoFlushPath(TraceJsonPath);
  }
  if (MetricsIntervalMs != 0 && ExpositionPath.empty()) {
    std::fprintf(
        stderr,
        "error: --metrics-interval-ms requires --metrics-exposition\n");
    return 2;
  }
  if (!JournalPath.empty()) {
    obs::Journal::get().enable();
    std::string JournalError;
    if (!obs::Journal::get().openFile(JournalPath, JournalError)) {
      std::fprintf(stderr, "error: %s\n", JournalError.c_str());
      return 1;
    }
  }
  obs::ExpositionWriter ExpoWriter;
  if (!ExpositionPath.empty() && MetricsIntervalMs != 0)
    ExpoWriter.start(ExpositionPath, MetricsIntervalMs);
  // From here on, every return path writes the final exposition snapshot
  // and closes the journal sink.
  ObsFinalizer Finalizer(ExpoWriter, ExpositionPath);

  std::unique_ptr<service::ScheduleCache> Cache;
  if (!CacheDir.empty()) {
    service::ScheduleCache::Config CacheCfg;
    CacheCfg.DiskDir = CacheDir;
    Cache = std::make_unique<service::ScheduleCache>(CacheCfg);
  }

  std::shared_ptr<const target::TargetModel> Target = target::defaultTarget();
  if (!TargetSpec.empty()) {
    std::string Err;
    Target = target::resolveTarget(TargetSpec, &Err);
    if (!Target) {
      std::fprintf(stderr, "error: --target: %s\n", Err.c_str());
      return 2;
    }
  }

  bool BatchMode = Paths.size() > 1 || !OpsFilePath.empty();
  if (!TuneModelPath.empty() && AutotuneStrategy != "surrogate") {
    std::fprintf(stderr,
                 "error: --tune-model requires --autotune=surrogate\n");
    return 2;
  }
  std::unique_ptr<tune::TuningDb> Db;
  std::unique_ptr<tune::Autotuner> Tuner;
  if (!AutotuneStrategy.empty()) {
    bool Surrogate = AutotuneStrategy == "surrogate";
    if (!Surrogate && !tune::makeStrategy(AutotuneStrategy)) {
      std::string Known;
      for (const std::string &N : tune::strategyNames())
        Known += (Known.empty() ? "" : ", ") + N;
      Known += ", surrogate";
      std::fprintf(stderr,
                   "error: unknown --autotune strategy '%s' (known: %s)\n",
                   AutotuneStrategy.c_str(), Known.c_str());
      return 2;
    }
    if (Surrogate && TuneModelPath.empty()) {
      std::fprintf(stderr,
                   "error: --autotune=surrogate requires --tune-model\n");
      return 2;
    }
    std::shared_ptr<const model::GbStumpsModel> TuneModel;
    if (Surrogate) {
      auto Loaded = std::make_shared<model::GbStumpsModel>();
      std::string ModelError;
      if (!model::loadModel(TuneModelPath, *Loaded, &ModelError)) {
        std::fprintf(stderr, "error: %s\n", ModelError.c_str());
        return 1;
      }
      TuneModel = std::move(Loaded);
    }
    tune::SearchSpace Space = tune::searchSpaceByName(TuneSpaceName);
    if (Space.empty()) {
      std::fprintf(stderr,
                   "error: unknown --tune-space '%s' (known: default, "
                   "tiny)\n",
                   TuneSpaceName.c_str());
      return 2;
    }
    if (!TuningDbPath.empty())
      Db = std::make_unique<tune::TuningDb>(TuningDbPath);
    tune::Autotuner::Config TuneCfg;
    TuneCfg.Strategy = AutotuneStrategy;
    TuneCfg.Seed = TuneSeed;
    TuneCfg.MaxEvaluations = TuneBudget;
    // Batch workers already run concurrently; nest no second pool.
    TuneCfg.Jobs = BatchMode ? 1 : Jobs;
    TuneCfg.Space = std::move(Space);
    TuneCfg.Db = Db.get();
    TuneCfg.Model = std::move(TuneModel);
    TuneCfg.TopK = TuneTopK;
    Tuner = std::make_unique<tune::Autotuner>(std::move(TuneCfg));
  } else if (!TuningDbPath.empty()) {
    std::fprintf(stderr, "error: --tuning-db requires --autotune\n");
    return 2;
  }

  if (BatchMode) {
    PipelineOptions Options;
    Options.Validate = Validate;
    Options.Sched.UseFeautrierFallback = Feautrier;
    Options.Budget = Budget;
    Options.Target = Target;
    Options.Cache = Cache.get();
    Options.Tuner = Tuner.get();
    int Rc = runBatch(Paths, Options, Jobs, Cache != nullptr, Artifacts,
                      ConfigArg, Stats, MetricsJsonPath);
    if (!TraceJsonPath.empty() && !writeTraceChecked(TraceJsonPath))
      return 1;
    return Rc;
  }
  std::string Error;
  std::optional<Kernel> K = loadKernel(Paths.front());

  std::printf("kernel '%s'\n\n%s\n", K->Name.c_str(),
              printKernel(*K).c_str());
  if (Artifacts.count("deps")) {
    std::printf("==== dependences ====\n");
    try {
      for (const DependenceRelation &D : computeDependences(*K))
        std::printf("%s\n", printDependence(*K, D).c_str());
    } catch (const RecoverableError &E) {
      std::printf("<unavailable: %s>\n", E.status().str().c_str());
    }
    std::printf("\n");
  }
  if (Artifacts.count("tree")) {
    try {
      InfluenceTree Tree = buildInfluenceTree(*K, InfluenceOptions());
      std::printf("==== influence constraint tree ====\n%s\n",
                  Tree.str(*K).c_str());
    } catch (const RecoverableError &E) {
      std::printf("==== influence constraint tree ====\n<unavailable: "
                  "%s>\n\n",
                  E.status().str().c_str());
    }
  }

  PipelineOptions Options;
  Options.Validate = Validate;
  Options.Sched.UseFeautrierFallback = Feautrier;
  Options.Budget = Budget;
  Options.Target = Target;
  Options.Cache = Cache.get();
  Options.Tuner = Tuner.get();
  obs::ReportSink Sink;
  if (!MetricsJsonPath.empty() || Stats)
    Options.Sink = &Sink;
  OperatorReport R = runOperator(*K, Options);

  bool All = ConfigArg == "all";
  if (All || ConfigArg == "isl")
    printConfig(*K, "isl", R.Isl, Artifacts, Options);
  if (All || ConfigArg == "novec")
    printConfig(*K, "novec", R.Novec, Artifacts, Options);
  if (All || ConfigArg == "infl")
    printConfig(*K, "infl", R.Infl, Artifacts, Options);
  if (All || ConfigArg == "tvm")
    std::printf("==== tvm (per-statement launches) ====\ntime %.3f us "
                "over %u launches\n\n",
                R.Tvm.TimeUs, R.Tvm.Launches);

  std::printf("summary: influenced=%s vectorizable=%s speedup(infl/isl)="
              "%.2fx%s\n",
              R.Influenced ? "yes" : "no", R.VecEligible ? "yes" : "no",
              R.Infl.TimeUs > 0 ? R.Isl.TimeUs / R.Infl.TimeUs : 0.0,
              Validate ? (R.Validated ? " validated=yes" : " validated=NO")
                       : "");
  if (R.Tuned)
    std::printf("tuning: %s predicted %.3f us (%s, %s)\n",
                R.Tuning.Encoding.c_str(), R.Tuning.PredictedTimeUs,
                R.Tuning.Strategy.c_str(),
                R.Tuning.FromDb ? "db" : "search");
  if (R.degraded()) {
    std::printf("degradations (%zu):\n", R.Degradations.size());
    for (const DegradationEvent &E : R.Degradations)
      std::printf("  %-8s %s at %s: %s\n", E.Config.c_str(),
                  statusCodeName(E.Code), E.Site.c_str(),
                  E.Detail.c_str());
  }

  if (Stats) {
    std::printf("\n==== per-config stats ====\n%s",
                printStatsTable(R).c_str());
    std::printf("\n==== process metrics ====\n%s",
                obs::metrics().snapshot().table().c_str());
  }
  if (!MetricsJsonPath.empty() &&
      !Sink.writeJson(MetricsJsonPath, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (!TraceJsonPath.empty() && !writeTraceChecked(TraceJsonPath))
    return 1;
  return Validate && !R.Validated ? 1 : 0;
}
