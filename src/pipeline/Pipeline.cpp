//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "lp/Budget.h"
#include "obs/Journal.h"
#include "obs/Stage.h"
#include "obs/Trace.h"
#include "support/Status.h"
#include "target/Target.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string_view>

using namespace pinj;

bool pinj::isSimulatableSchedule(const Kernel &K, const Schedule &S) {
  if (!isGeneratableSchedule(K, S))
    return false;
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    Int Extent = 0;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      RowShape Shape = analyzeRow(K, S, Stmt, D);
      if (Shape.Kind != RowShape::Unit)
        continue;
      Int StmtExtent = K.Stmts[Stmt].Extents[Shape.Iter];
      if (Extent != 0 && StmtExtent != Extent)
        return false;
      Extent = StmtExtent;
    }
  }
  return true;
}

namespace {

SchedulerResult
scheduleUnderTree(const Kernel &K, const SchedulerOptions &Options,
                  const InfluenceTree &Tree,
                  const std::vector<DependenceRelation> *Deps = nullptr) {
  SchedulerOptions Sched = Options;
  Sched.SerializeSccs = false; // Let fusion constraints take effect.
  return scheduleKernel(K, Sched, &Tree, Deps);
}

} // namespace

SchedulerResult pinj::scheduleInfluenced(const Kernel &K,
                                         const PipelineOptions &Options) {
  InfluenceTree Tree = buildInfluenceTree(K, Options.Influence);
  return scheduleUnderTree(K, Options.Sched, Tree);
}

std::string pinj::renderCuda(const Kernel &K, const Schedule &S,
                             const GpuMappingOptions &Mapping) {
  MappedKernel M = mapToGpu(K, S, Mapping);
  return printCuda(M);
}

namespace {

/// Nesting depth of runOperator on this thread. Exactly one
/// request_start/request_end pair is journaled per operator compilation:
/// the outermost call owns them, so the tuner-dispatch recursion and any
/// evaluation runs the tuner performs internally never double-emit.
thread_local unsigned RequestDepth = 0;

struct RequestDepthGuard {
  RequestDepthGuard() { ++RequestDepth; }
  ~RequestDepthGuard() { --RequestDepth; }
};

/// The scheduling half of runOperator and the only code that runs the
/// degradation ladder (see DegradationEvent): runOperator drives it one
/// configuration per stage, scheduleInflConfig asks for infl alone. The
/// isl and influenced runs happen once, on first use, so infl()
/// schedules isl only when the influenced schedule is unusable. novec
/// and infl are Skipped once the operator deadline has expired. The
/// kernel's dependence relations are computed once, on first use, and
/// read by both scheduler runs and the infl vector pass.
class ScheduleLadder {
public:
  /// Sees each degradation (configuration, cause) as the ladder takes it.
  using Observer = std::function<void(const char *, const Status &)>;

  /// With \p Replay, every step returns its cached schedule instead.
  /// With \p Tree, the influenced run schedules under it rather than
  /// building buildInfluenceTree(K, Options.Influence) itself.
  ScheduleLadder(const Kernel &K, const PipelineOptions &Options,
                 Observer OnDegrade, const CachedCompilation *Replay = nullptr,
                 const InfluenceTree *Tree = nullptr)
      : K(K), Options(Options), OnDegrade(std::move(OnDegrade)),
        Replay(Replay), Tree(Tree) {}

  ConfigResult isl() {
    if (Replay)
      return ConfigResult(Replay->Isl);
    ConfigResult C = islRun();
    stripVectorMarks(C.Sched);
    return C;
  }

  ConfigResult novec() {
    if (Replay)
      return ConfigResult(Replay->Novec);
    ConfigResult C = influencedRun();
    stripVectorMarks(C.Sched);
    return C;
  }

  ConfigResult infl() {
    if (Replay)
      return ConfigResult(Replay->Infl);
    ConfigResult C(influencedRun().Sched);
    if (skipOnDeadline("infl", C))
      return C;
    try {
      VecEligible = finalizeVectorMarks(K, C.Sched, false, deps()) > 0;
    } catch (const RecoverableError &E) {
      // Degrade to the novec schedule: the influenced schedule with its
      // vector marks cleared.
      OnDegrade("infl", E.status());
      C.Outcome = E.status();
      C.Sched = influencedRun().Sched;
      stripVectorMarks(C.Sched);
    }
    C.Stats = influencedRun().Stats;
    return C;
  }

  /// The influenced schedule differs from isl's.
  bool influenced() {
    return Replay ? Replay->Influenced
                  : influencedRun().Sched.Transforms !=
                        islRun().Sched.Transforms;
  }
  /// infl() left at least one dimension vector-marked.
  bool vecEligible() const {
    return Replay ? Replay->VecEligible : VecEligible;
  }
  /// The largest budget charge of any one scheduleKernel run so far.
  SolverWork maxRunWork() const { return MaxRun; }

  /// The operator deadline: once expired, the stage asking is skipped
  /// and the skip recorded, once per stage.
  bool deadlineExpired(const char *Config) {
    if (!budget::deadlineExpired())
      return false;
    OnDegrade(Config, Status(StatusCode::BudgetExceeded, "pipeline.deadline",
                             "operator budget exhausted; stage skipped"));
    return true;
  }

  /// Influenced scheduling (shared by novec and infl) and its fallbacks,
  /// before any vector-mark pass.
  const ConfigResult &influencedRun() {
    if (InfluencedResult)
      return *InfluencedResult;
    ConfigResult &C = InfluencedResult.emplace();
    if (skipOnDeadline("novec", C)) {
      C.Sched = islRun().Sched;
      return C;
    }
    try {
      const std::vector<DependenceRelation> *Deps = deps();
      SchedulerResult Run = metered([&] {
        if (Tree)
          return scheduleUnderTree(K, Options.Sched, *Tree, Deps);
        return scheduleUnderTree(
            K, Options.Sched, buildInfluenceTree(K, Options.Influence), Deps);
      });
      C.Sched = std::move(Run.Sched);
      C.Stats = Run.Stats;
      if (!Run.Outcome.ok()) {
        // Influenced scheduling fell back internally; prefer the
        // reference schedule over the original order it returned.
        OnDegrade("novec", Run.Outcome);
        C.Outcome = Run.Outcome;
        C.Sched = islRun().Sched;
      }
    } catch (const RecoverableError &E) {
      // buildInfluenceTree (outside the scheduler's own recovery
      // boundary) failed; degrade to the reference schedule.
      OnDegrade("novec", E.status());
      C.Outcome = E.status();
      C.Sched = islRun().Sched;
    }
    // The influenced schedule fused statements the backend cannot
    // generate together; fall back to the reference schedule. This is
    // expected fusion rejection, not a degradation.
    if (!isSimulatableSchedule(K, C.Sched))
      C.Sched = islRun().Sched;
    return C;
  }

private:
  const ConfigResult &islRun() {
    if (IslResult)
      return *IslResult;
    ConfigResult &C = IslResult.emplace();
    // Reference configuration: plain scheduling, SCCs serialized up
    // front (the isl behaviour observed in the paper's Fig. 2(b)). On
    // any recoverable failure the scheduler already degraded to the
    // original program order; the ladder only needs to record why.
    SchedulerOptions IslOptions = Options.Sched;
    IslOptions.SerializeSccs = true;
    const std::vector<DependenceRelation> *Deps = deps();
    SchedulerResult Run =
        metered([&] { return scheduleKernel(K, IslOptions, nullptr, Deps); });
    C.Sched = std::move(Run.Sched);
    C.Stats = Run.Stats;
    if (!Run.Outcome.ok()) {
      C.Outcome = Run.Outcome;
      OnDegrade("isl", Run.Outcome);
    }
    if (!isSimulatableSchedule(K, C.Sched)) {
      // A constructed reference schedule is generatable on every kernel
      // the operator library produces; reaching this means the
      // construction itself was degraded. Fall to the original order.
      OnDegrade("isl", Status(StatusCode::Internal, "pipeline.isl",
                              "reference schedule not generatable; using "
                              "original program order"));
      C.Sched = originalSchedule(K);
    }
    return C;
  }

  /// Runs one scheduler invocation, folding its charges into MaxRun.
  template <class RunFn> SchedulerResult metered(RunFn &&Run) {
    const SolverWork Before = budget::threadCharges();
    SchedulerResult Result = Run();
    const SolverWork After = budget::threadCharges();
    MaxRun.Pivots = std::max(MaxRun.Pivots, After.Pivots - Before.Pivots);
    MaxRun.Nodes = std::max(MaxRun.Nodes, After.Nodes - Before.Nodes);
    return Result;
  }

  /// K's relations, computed at most once, under the operator's budget
  /// scope but outside every scheduler run's. Null when the analysis
  /// raised: each consumer then computes its own inside its own recovery
  /// boundary, which records the degradation.
  const std::vector<DependenceRelation> *deps() {
    if (!Relations && !DepsFailed) {
      try {
        Relations =
            computeDependences(K, {Options.Sched.ProximityIncludesInput});
      } catch (const RecoverableError &) {
        DepsFailed = true;
      }
    }
    return Relations ? &*Relations : nullptr;
  }

  bool skipOnDeadline(const char *Config, ConfigResult &C) {
    if (!deadlineExpired(Config))
      return false;
    C.Outcome = Status(StatusCode::BudgetExceeded, "pipeline.deadline");
    C.Skipped = true;
    return true;
  }

  const Kernel &K;
  const PipelineOptions &Options;
  Observer OnDegrade;
  const CachedCompilation *Replay;
  const InfluenceTree *Tree;
  std::optional<ConfigResult> IslResult, InfluencedResult;
  std::optional<std::vector<DependenceRelation>> Relations;
  bool DepsFailed = false;
  bool VecEligible = false;
  SolverWork MaxRun;
};

} // namespace

bool pinj::scheduleInflConfig(const Kernel &K, const PipelineOptions &Options,
                              Schedule &Out, const InfluenceTree *Tree,
                              InflScheduleWork *Work) {
  // runOperator's operator-wide budget; anyTripped() then sees both
  // this scope and any caller-installed one.
  budget::BudgetScope OpBudget(Options.Budget);
  bool IslDegraded = false;
  ScheduleLadder Ladder(
      K, Options,
      [&](const char *Config, const Status &) {
        IslDegraded |= std::string_view(Config) == "isl";
      },
      /*Replay=*/nullptr, Tree);
  std::optional<Schedule> Accepted;
  try {
    // A degraded isl fallback already decides, and so does an influenced
    // run its own Sched.Budget starved (that scope has ended, so
    // anyTripped() below no longer sees it); skip the vector pass.
    const ConfigResult &Influenced = Ladder.influencedRun();
    if (!IslDegraded &&
        Influenced.Outcome.code() != StatusCode::BudgetExceeded) {
      ConfigResult Infl = Ladder.infl();
      if (Infl.Outcome.ok() && isSimulatableSchedule(K, Infl.Sched))
        Accepted = std::move(Infl.Sched);
    }
  } catch (const RecoverableError &) {
  }
  // A run that charged more than Sched.Budget admits tripped it, even
  // where its outcome does not say so.
  const SolverWork MaxRun = Ladder.maxRunWork();
  const bool Tripped =
      budget::anyTripped() || !Options.Sched.Budget.admits(MaxRun);
  if (Work)
    *Work = {MaxRun, Tripped};
  if (!Accepted || Tripped)
    return false;
  Out = std::move(*Accepted);
  return true;
}

OperatorReport pinj::runOperator(const Kernel &K,
                                 const PipelineOptions &Options) {
  // Request identity: the outermost runOperator call on this thread owns
  // the request — it allocates the id (unless the batch compiler
  // pre-assigned one via RequestScope) and journals the single
  // request_start/request_end pair. Tuner-dispatch recursion and the
  // tuner's internal evaluation runs inherit the id and stay silent.
  const bool Outermost = RequestDepth == 0;
  std::string Rid = obs::currentRequestId();
  if (Rid.empty())
    Rid = obs::nextRequestId();
  obs::RequestScope Request(Rid);
  RequestDepthGuard DepthGuard;
  const auto RequestT0 = std::chrono::steady_clock::now();
  if (Outermost && obs::Journal::fastEnabled())
    obs::JournalEvent("request_start")
        .field("operator", K.Name)
        .field("tuner", Options.Tuner != nullptr);
  auto journalRequestEnd = [&](const OperatorReport &R) {
    if (!Outermost || !obs::Journal::fastEnabled())
      return;
    obs::JournalEvent("request_end")
        .field("operator", K.Name)
        .field("dur_us", std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - RequestT0)
                             .count())
        .field("degradations", R.Degradations.size())
        .field("influenced", R.Influenced)
        .field("vec_eligible", R.VecEligible)
        .field("cache_hit", R.CacheHit)
        .field("tuned", R.Tuned);
  };

  // Autotuning dispatch: the hook picks the options this operator runs
  // under (possibly unchanged), and the compilation below proceeds as a
  // plain run of those options — the cache keys on them, so tuned and
  // untuned compilations never alias. The sink record is written here
  // so it carries the tuning outcome.
  if (Options.Tuner) {
    PipelineOptions Inner = Options;
    Inner.Tuner = nullptr;
    Inner.Sink = nullptr;
    TunedConfig Chosen;
    bool Applied = Options.Tuner->tune(K, Inner, Chosen);
    OperatorReport Report = runOperator(K, Inner);
    if (Applied) {
      Report.Tuned = true;
      Report.Tuning = std::move(Chosen);
    }
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("tuning")
          .field("applied", Applied)
          .field("encoding", Report.Tuned ? Report.Tuning.Encoding
                                          : std::string())
          .field("from_db", Report.Tuned && Report.Tuning.FromDb)
          .field("strategy", Report.Tuned ? Report.Tuning.Strategy
                                          : std::string());
    if (Options.Sink)
      Options.Sink->add(toSinkRecord(Report));
    journalRequestEnd(Report);
    return Report;
  }

  obs::Span Op("pipeline.operator");
  if (Op.active())
    Op.arg("name", K.Name).arg("request_id", Rid);
  obs::MetricsRegistry &M = obs::metrics();
  static obs::Counter &Operators = M.counter("pipeline.operators");
  static obs::Counter &Degradations = M.counter("pipeline.degradations");
  Operators.inc();
  const obs::MetricsSnapshot Begin = M.snapshot();
  obs::MetricsSnapshot Mark = Begin;

  OperatorReport Report;
  Report.Name = K.Name;
  Report.RequestId = Rid;

  // Whole-operator budget: WallMs is the operator deadline; pivot/node
  // caps apply across every solve of every configuration. Per-run
  // scheduler budgets (Options.Sched.Budget) nest inside it.
  budget::BudgetScope OpBudget(Options.Budget);

  auto recordDegradation = [&](const char *Config, const Status &St) {
    Degradations.inc();
    DegradationEvent E;
    E.Config = Config;
    E.Site = St.site();
    E.Code = St.code();
    E.Detail = St.message().empty() ? St.str() : St.message();
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("degradation")
          .field("config", Config)
          .field("site", E.Site)
          .field("code", statusCodeName(E.Code))
          .field("detail", E.Detail);
    Report.Degradations.push_back(std::move(E));
    // A degradation marks an abnormal path: flush the trace and journal
    // sinks now, so a run that dies further on still leaves loadable
    // artifacts (both flushes are cheap no-ops when unconfigured).
    obs::Tracer::get().autoFlush();
    obs::Journal::get().flushFile();
  };
  // Maps and simulates \p Out's schedule; on failure Out keeps the
  // schedule but reports zero simulation results. A schedule the backend
  // cannot generate is skipped the same way (the last-resort
  // original-order fallback is always executable by the interpreter,
  // but not always expressible as a single fused launch).
  auto simulateGuarded = [&](const char *Config, ConfigResult &Out) {
    if (!isSimulatableSchedule(K, Out.Sched)) {
      Out.Outcome = Status(StatusCode::Internal, "codegen.map",
                           "schedule not generatable; simulation skipped");
      recordDegradation(Config, Out.Outcome);
      return;
    }
    try {
      Out.Sim = target::simulateForOptions(
          mapToGpu(K, Out.Sched, Options.Mapping), Options);
      Out.TimeUs = Out.Sim.TimeUs;
    } catch (const RecoverableError &E) {
      Out.Outcome = E.status();
      recordDegradation(Config, E.status());
    }
  };

  // Compilation-cache fast path: on a hit the scheduling phase is
  // skipped entirely and the cached schedules are replayed through
  // mapping/simulation below. A hook returning structurally
  // incompatible schedules (corrupt entry that slipped through its own
  // validation) is treated as a miss.
  CachedCompilation Cached;
  Report.CacheHit =
      Options.Cache && Options.Cache->lookup(K, Options, Cached) &&
      Cached.Isl.compatibleWith(K) && Cached.Novec.compatibleWith(K) &&
      Cached.Infl.compatibleWith(K);
  if (Op.active())
    Op.arg("cache_hit", Report.CacheHit);
  if (Options.Cache && obs::Journal::fastEnabled())
    obs::JournalEvent("cache_lookup").field("hit", Report.CacheHit);

  // Each scheduled configuration is one stage: its ladder step, then its
  // simulation unless the deadline skipped it.
  ScheduleLadder Ladder(K, Options, recordDegradation,
                        Report.CacheHit ? &Cached : nullptr);
  auto configStage = [&](const char *Config, const char *SpanName,
                         ConfigResult (ScheduleLadder::*Step)(),
                         ConfigResult &Out) {
    obs::Stage S(Config, SpanName, &Mark, &Out.Metrics);
    Out = (Ladder.*Step)();
    if (!Out.Skipped)
      simulateGuarded(Config, Out);
    S.setOutcome(Out.Outcome.ok() ? "ok" : statusCodeName(Out.Outcome.code()));
  };

  configStage("isl", "pipeline.config.isl", &ScheduleLadder::isl, Report.Isl);
  configStage("novec", "pipeline.config.novec", &ScheduleLadder::novec,
              Report.Novec);
  configStage("infl", "pipeline.config.infl", &ScheduleLadder::infl,
              Report.Infl);
  Report.Influenced = Ladder.influenced();
  Report.VecEligible = Ladder.vecEligible();

  // Manual-schedule proxy.
  {
    obs::Stage S("tvm", "pipeline.config.tvm");
    if (!Ladder.deadlineExpired("tvm")) {
      try {
        Report.Tvm = Options.Target
                         ? simulateTvmProxy(K, *Options.Target,
                                            Options.Mapping)
                         : simulateTvmProxy(K, Options.Gpu, Options.Mapping);
      } catch (const RecoverableError &E) {
        recordDegradation("tvm", E.status());
      }
    }
  }

  if (Options.Validate && !Ladder.deadlineExpired("validate")) {
    obs::Stage S("validate", "pipeline.validate");
    try {
      // One original-order reference run serves both schedules.
      ScheduleValidator Validator(K);
      Report.Validated = Validator.check(Report.Isl.Sched) &&
                         Validator.check(Report.Infl.Sched);
    } catch (const RecoverableError &E) {
      recordDegradation("validate", E.status());
    }
  }

  // Offer the result for caching: only full-fidelity compilations are
  // stored, so replays never resurrect a degraded schedule.
  if (Options.Cache && !Report.CacheHit && Report.Degradations.empty()) {
    Options.Cache->store(K, Options,
                         {Report.Isl.Sched, Report.Novec.Sched,
                          Report.Infl.Sched, Report.Influenced,
                          Report.VecEligible});
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("cache_store").field("operator", K.Name);
  }

  Report.Metrics = M.snapshot().since(Begin);
  if (Options.Sink)
    Options.Sink->add(toSinkRecord(Report));
  journalRequestEnd(Report);
  return Report;
}

namespace {

obs::ConfigRecord toConfigRecord(const char *Name, const ConfigResult &R) {
  obs::ConfigRecord C;
  C.Name = Name;
  C.TimeUs = R.TimeUs;
  C.Transactions = R.Sim.Transactions;
  C.TransactionBytes = R.Sim.TransactionBytes;
  C.UsefulBytes = R.Sim.UsefulBytes;
  C.Metrics = R.Metrics;
  return C;
}

} // namespace

obs::OperatorRecord pinj::toSinkRecord(const OperatorReport &R) {
  obs::OperatorRecord Record;
  Record.Name = R.Name;
  Record.RequestId = R.RequestId;
  Record.Influenced = R.Influenced;
  Record.VecEligible = R.VecEligible;
  Record.Validated = R.Validated;
  Record.CacheHit = R.CacheHit;
  Record.Tuned = R.Tuned;
  if (R.Tuned) {
    Record.TuneEncoding = R.Tuning.Encoding;
    Record.TunePredictedUs = R.Tuning.PredictedTimeUs;
    Record.TuneFromDb = R.Tuning.FromDb;
    Record.TuneStrategy = R.Tuning.Strategy;
  }
  for (const DegradationEvent &E : R.Degradations) {
    obs::DegradationRecord D;
    D.Config = E.Config;
    D.Site = E.Site;
    D.Code = statusCodeName(E.Code);
    D.Detail = E.Detail;
    Record.Degradations.push_back(std::move(D));
  }
  Record.Configs.push_back(toConfigRecord("isl", R.Isl));
  Record.Configs.push_back(toConfigRecord("novec", R.Novec));
  Record.Configs.push_back(toConfigRecord("infl", R.Infl));
  obs::ConfigRecord Tvm;
  Tvm.Name = "tvm";
  Tvm.TimeUs = R.Tvm.TimeUs;
  Record.Configs.push_back(std::move(Tvm));
  Record.Metrics = R.Metrics;
  return Record;
}

std::string pinj::printStatsTable(const OperatorReport &R) {
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf), "%-6s %10s %13s %10s %10s %10s %9s\n",
                "config", "time_us", "transactions", "ilp_solves",
                "ilp_nodes", "pivots", "fallbacks");
  Out += Buf;
  auto Row = [&](const char *Name, const ConfigResult &C) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-6s %10.2f %13.0f %10llu %10llu %10llu %9llu\n", Name,
                  C.TimeUs, C.Sim.Transactions,
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.ilp_solves")),
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.ilp_nodes")),
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.simplex_pivots")),
                  static_cast<unsigned long long>(C.Stats.fallbacks()));
    Out += Buf;
  };
  Row("isl", R.Isl);
  Row("novec", R.Novec);
  Row("infl", R.Infl);
  std::snprintf(Buf, sizeof(Buf), "%-6s %10.2f %13s (%u launches)\n", "tvm",
                R.Tvm.TimeUs, "-", R.Tvm.Launches);
  Out += Buf;
  if (R.Tuned) {
    std::snprintf(Buf, sizeof(Buf),
                  "tuned: %s predicted %.3f us (%s, %s)\n",
                  R.Tuning.Encoding.c_str(), R.Tuning.PredictedTimeUs,
                  R.Tuning.FromDb ? "db" : "search",
                  R.Tuning.Strategy.c_str());
    Out += Buf;
  }
  if (R.degraded()) {
    std::snprintf(Buf, sizeof(Buf), "degradations: %zu\n",
                  R.Degradations.size());
    Out += Buf;
    for (const DegradationEvent &E : R.Degradations) {
      std::snprintf(Buf, sizeof(Buf), "  %-8s %s at %s: %s\n",
                    E.Config.c_str(), statusCodeName(E.Code),
                    E.Site.c_str(), E.Detail.c_str());
      Out += Buf;
    }
  }
  return Out;
}
