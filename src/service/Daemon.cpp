//===- service/Daemon.cpp -------------------------------------------------===//

#include "service/Daemon.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Journal.h"
#include "obs/Json.h"
#include "ops/OpFactory.h"
#include "support/FailPoint.h"
#include "support/Status.h"
#include "tune/TuningDb.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

using namespace pinj;
using namespace pinj::service;

namespace {

namespace json = obs::json;

std::atomic<bool> GStopRequested{false};

double msSince(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Appends `"key":"value"` (escaped) to a JSON object under
/// construction.
void appendStr(std::string &Out, const char *Key, const std::string &V) {
  if (Out.back() != '{')
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":\"";
  json::escapeTo(Out, V);
  Out += '"';
}

void appendNum(std::string &Out, const char *Key, double V) {
  if (Out.back() != '{')
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += json::number(V);
}

void appendInt(std::string &Out, const char *Key, std::uint64_t V) {
  if (Out.back() != '{')
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

void appendBool(std::string &Out, const char *Key, bool V) {
  if (Out.back() != '{')
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += V ? "true" : "false";
}

/// Every response starts with the same identity prefix: the client id
/// (when one was recoverable) and the per-session line index, which is
/// what lets the chaos harness do exact per-line accounting even for
/// lines whose id never parsed.
std::string responseHead(const std::string &ClientId, std::uint64_t LineNo,
                         const char *Status) {
  std::string Out = "{";
  if (!ClientId.empty())
    appendStr(Out, "id", ClientId);
  appendInt(Out, "line", LineNo);
  appendStr(Out, "status", Status);
  return Out;
}

std::string errorResponse(const std::string &ClientId, std::uint64_t LineNo,
                          const std::string &Site,
                          const std::string &Reason) {
  std::string Out = responseHead(ClientId, LineNo, "error");
  if (!Site.empty())
    appendStr(Out, "site", Site);
  appendStr(Out, "reason", Reason);
  Out += '}';
  return Out;
}

/// Reads a member that may be a JSON string or number into a string id.
std::string clientIdOf(const json::Value &V) {
  const json::Value *Id = V.find("id");
  if (!Id)
    return std::string();
  if (Id->isString())
    return Id->Str;
  if (Id->isNumber())
    return json::number(Id->Num);
  return std::string();
}

/// Copies a damaged-but-partially-usable file into <dir>/quarantine/
/// (the tuning DB keeps serving its surviving entries, so unlike a
/// cache entry it is copied, not moved). \returns false when the copy
/// could not be made.
bool quarantineCopy(const std::string &Path) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::path P(Path);
  fs::path Dir = P.parent_path().empty() ? fs::path(".") : P.parent_path();
  fs::path QDir = Dir / "quarantine";
  fs::create_directories(QDir, Ec);
  if (Ec)
    return false;
  fs::copy_file(P, QDir / P.filename(), fs::copy_options::overwrite_existing,
                Ec);
  return !Ec;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction and recovery
//===----------------------------------------------------------------------===//

Daemon::Daemon(DaemonConfig C)
    : Cfg(std::move(C)), CacheTier(Cfg.Cache), Queue(Cfg.Admission) {
  if (Cfg.Workers == 0)
    Cfg.Workers = 1;
  // Crash recovery before the first request: validate the warm state a
  // previous process left behind, moving damage aside. The sweep
  // journals one `quarantine` event per rejection.
  Recovery.Cache = sweepCacheDir(Cfg.Cache.DiskDir);
  if (!Cfg.TuningDbPath.empty() &&
      std::filesystem::exists(Cfg.TuningDbPath)) {
    // Loading revalidates every entry (tune/TuningDb.h); survivors stay
    // usable, so damage quarantines a *copy* for postmortem.
    tune::TuningDb Probe(Cfg.TuningDbPath);
    Recovery.TuningDbRejects = Probe.stats().Rejects;
    if (Recovery.TuningDbRejects > 0) {
      Recovery.TuningDbQuarantined = quarantineCopy(Cfg.TuningDbPath);
      obs::JournalEvent("quarantine")
          .field("file",
                 std::filesystem::path(Cfg.TuningDbPath).filename().string())
          .field("reason", "tuning db damage: " +
                               std::to_string(Recovery.TuningDbRejects) +
                               " rejected entries")
          .field("copied", Recovery.TuningDbQuarantined);
    }
  }
}

Daemon::~Daemon() {
  if (!Pool.empty() && !Drained.load())
    drainAndStop();
}

void Daemon::requestStop() {
  GStopRequested.store(true, std::memory_order_relaxed);
}

bool Daemon::stopRequested() {
  return GStopRequested.load(std::memory_order_relaxed);
}

DaemonStats Daemon::stats() const {
  DaemonStats S;
  S.Submitted = Submitted.load();
  S.Admitted = Admitted.load();
  S.Completed = Completed.load();
  S.ShedExpired = ShedExpired.load();
  S.ShedQueueFull = ShedQueueFull.load();
  S.ShedDraining = ShedDraining.load();
  S.ParseErrors = ParseErrors.load();
  S.FaultResponses = FaultResponses.load();
  S.Responses = Responses.load();
  S.DrainTimeouts = DrainTimeouts.load();
  return S;
}

//===----------------------------------------------------------------------===//
// Response delivery
//===----------------------------------------------------------------------===//

void Daemon::deliver(const std::string &ClientId, std::uint64_t LineNo,
                     std::string Line) {
  std::lock_guard<std::mutex> L(RespondMu);
  try {
    failpoint::hit("service.respond");
  } catch (const RecoverableError &E) {
    // The response write boundary failed; the request still gets its
    // one terminal response, attributed to the fail-point.
    FaultResponses.fetch_add(1);
    Line = errorResponse(ClientId, LineNo, E.status().site(),
                         "injected fault at response boundary");
  }
  Responses.fetch_add(1);
  if (Respond)
    Respond(Line);
}

void Daemon::shedResponse(const DaemonRequest &R, ShedReason Reason,
                          double RetryAfterMs) {
  switch (Reason) {
  case ShedReason::DeadlineExpired:
    ShedExpired.fetch_add(1);
    break;
  case ShedReason::QueueFull:
    ShedQueueFull.fetch_add(1);
    break;
  case ShedReason::Draining:
    ShedDraining.fetch_add(1);
    break;
  }
  {
    // Journal under the request's id so the shed joins the request's
    // other artifacts offline.
    obs::RequestScope Scope(R.RequestId);
    obs::JournalEvent("shed")
        .field("client_id", R.ClientId)
        .field("reason", shedReasonName(Reason))
        .field("retry_after_ms", RetryAfterMs)
        .field("depth",
               static_cast<unsigned long long>(Queue.depth()));
  }
  std::string Out = responseHead(R.ClientId, R.LineNo, "shed");
  appendStr(Out, "reason", shedReasonName(Reason));
  appendNum(Out, "retry_after_ms", RetryAfterMs);
  Out += '}';
  deliver(R.ClientId, R.LineNo, Out);
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

void Daemon::process(DaemonRequest R) {
  auto Now = std::chrono::steady_clock::now();
  if (R.HasDeadline && R.Deadline <= Now) {
    // Expired while queued: shed at pop rather than burning solver time
    // nobody is waiting for.
    shedResponse(R, ShedReason::DeadlineExpired,
                 Queue.retryAfterMs(Queue.depth()));
    return;
  }
  obs::RequestScope Scope(R.RequestId);
  PipelineOptions Options = Cfg.Pipeline;
  Options.Cache = &CacheTier;
  const SolverBudget &Base = Cfg.Admission.BaseBudget;
  if (R.HasDeadline)
    Options.Budget = budgetForRemaining(msSince(Now, R.Deadline), Base);
  else
    Options.Budget = Base;
  OperatorReport Report = runOperator(R.K, Options);
  Completed.fetch_add(1);

  std::string Out = responseHead(R.ClientId, R.LineNo, "ok");
  appendStr(Out, "operator", Report.Name);
  appendStr(Out, "cache", Report.CacheHit ? "hit" : "miss");
  appendBool(Out, "influenced", Report.Influenced);
  appendBool(Out, "vectorizable", Report.VecEligible);
  appendNum(Out, "time_us", Report.Infl.TimeUs);
  appendNum(Out, "speedup",
            Report.Infl.TimeUs > 0 ? Report.Isl.TimeUs / Report.Infl.TimeUs
                                   : 0);
  appendInt(Out, "degraded", Report.Degradations.size());
  if (Cfg.TimingInResponses)
    appendNum(Out, "wall_us",
              msSince(Now, std::chrono::steady_clock::now()) * 1000.0);
  Out += '}';
  deliver(R.ClientId, R.LineNo, Out);
}

void Daemon::workerLoop() {
  DaemonRequest R;
  while (Queue.pop(R))
    process(std::move(R));
  {
    std::lock_guard<std::mutex> L(DrainMu);
    --LiveWorkers;
  }
  DrainCv.notify_all();
}

void Daemon::start(ResponseFn Fn) {
  Respond = std::move(Fn);
  if (Cfg.Sync)
    return;
  {
    std::lock_guard<std::mutex> L(DrainMu);
    LiveWorkers = Cfg.Workers;
  }
  Pool.reserve(Cfg.Workers);
  for (std::size_t I = 0; I != Cfg.Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
}

//===----------------------------------------------------------------------===//
// Intake
//===----------------------------------------------------------------------===//

void Daemon::submitLine(const std::string &Line) {
  std::uint64_t LineNo = Submitted.fetch_add(1) + 1;
  try {
    failpoint::hit("service.parse");
  } catch (const RecoverableError &E) {
    FaultResponses.fetch_add(1);
    deliver(std::string(), LineNo,
            errorResponse(std::string(), LineNo, E.status().site(),
                          "injected fault at parse boundary"));
    return;
  }

  std::string ParseError;
  std::optional<json::Value> V = json::parse(Line, ParseError);
  if (!V || !V->isObject()) {
    ParseErrors.fetch_add(1);
    deliver(std::string(), LineNo,
            errorResponse(std::string(), LineNo, std::string(),
                          "malformed request: " +
                              (ParseError.empty() ? std::string("not an object")
                                                  : ParseError)));
    return;
  }
  std::string ClientId = clientIdOf(*V);
  const json::Value *OpV = V->find("op");
  std::string Op = OpV && OpV->isString() ? OpV->Str : "compile";

  if (Op == "ping") {
    std::string Out = responseHead(ClientId, LineNo, "pong");
    Out += '}';
    deliver(ClientId, LineNo, Out);
    return;
  }
  if (Op == "stats") {
    DaemonStats S = stats();
    CacheStats CS = CacheTier.stats();
    std::string Out = responseHead(ClientId, LineNo, "stats");
    appendInt(Out, "submitted", S.Submitted);
    appendInt(Out, "admitted", S.Admitted);
    appendInt(Out, "completed", S.Completed);
    appendInt(Out, "shed", S.shedTotal());
    appendInt(Out, "parse_errors", S.ParseErrors);
    appendInt(Out, "cache_hits", CS.Hits);
    appendInt(Out, "cache_misses", CS.Misses);
    appendInt(Out, "quarantined",
              Recovery.Cache.Quarantined + CS.Quarantined);
    Out += '}';
    deliver(ClientId, LineNo, Out);
    return;
  }
  if (Op == "shutdown") {
    ShutdownOp.store(true);
    std::string Out = responseHead(ClientId, LineNo, "bye");
    Out += '}';
    deliver(ClientId, LineNo, Out);
    return;
  }
  if (Op != "compile") {
    ParseErrors.fetch_add(1);
    deliver(ClientId, LineNo,
            errorResponse(ClientId, LineNo, std::string(),
                          "unknown op: " + Op));
    return;
  }

  // Kernel source: inline text or a file path.
  std::string KernelText;
  const json::Value *Inline = V->find("kernel");
  const json::Value *File = V->find("kernel_file");
  if (Inline && Inline->isString()) {
    KernelText = Inline->Str;
  } else if (File && File->isString()) {
    if (!readFile(File->Str, KernelText)) {
      ParseErrors.fetch_add(1);
      deliver(ClientId, LineNo,
              errorResponse(ClientId, LineNo, std::string(),
                            "cannot open kernel_file: " + File->Str));
      return;
    }
  } else {
    ParseErrors.fetch_add(1);
    deliver(ClientId, LineNo,
            errorResponse(ClientId, LineNo, std::string(),
                          "missing kernel or kernel_file"));
    return;
  }
  std::string KernelError;
  std::optional<Kernel> K = parseKernel(KernelText, KernelError);
  std::string Diag = K ? K->verify() : KernelError;
  if (!K || !Diag.empty()) {
    ParseErrors.fetch_add(1);
    deliver(ClientId, LineNo,
            errorResponse(ClientId, LineNo, std::string(),
                          "bad kernel: " + Diag));
    return;
  }

  DaemonRequest R;
  R.ClientId = ClientId;
  R.RequestId = obs::nextRequestId();
  R.LineNo = LineNo;
  R.K = std::move(*K);
  const json::Value *DeadlineV = V->find("deadline_ms");
  if (DeadlineV && DeadlineV->isNumber()) {
    R.HasDeadline = true;
    R.DeadlineMs = DeadlineV->Num;
    R.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         std::max(DeadlineV->Num, 0.0)));
  }

  // Admission. Keep the identity fields for the shed/fault paths — the
  // queue takes the request by value.
  DaemonRequest ForShed;
  ForShed.ClientId = R.ClientId;
  ForShed.RequestId = R.RequestId;
  ForShed.LineNo = R.LineNo;
  std::string OperatorName = R.K.Name;
  double DeadlineMs = R.DeadlineMs;
  bool AdmittedNow = false;
  ShedDecision Shed;
  try {
    AdmittedNow = Queue.admit(std::move(R), Shed);
  } catch (const RecoverableError &E) {
    FaultResponses.fetch_add(1);
    deliver(ClientId, LineNo,
            errorResponse(ClientId, LineNo, E.status().site(),
                          "injected fault at queue boundary"));
    return;
  }
  if (!AdmittedNow) {
    shedResponse(ForShed, Shed.Reason, Shed.RetryAfterMs);
    return;
  }
  Admitted.fetch_add(1);
  {
    obs::RequestScope Scope(ForShed.RequestId);
    obs::JournalEvent("admit")
        .field("client_id", ClientId)
        .field("operator", OperatorName)
        .field("deadline_ms", DeadlineMs)
        .field("depth", static_cast<unsigned long long>(Queue.depth()));
  }
  if (Cfg.Sync) {
    // Synchronous serving: run everything admitted to its terminal
    // response before returning, so responses are submission-ordered
    // and byte-stable.
    DaemonRequest Next;
    while (Queue.tryPop(Next))
      process(std::move(Next));
  }
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

void Daemon::drainAndStop() {
  if (Drained.exchange(true))
    return;
  bool DrainFault = false;
  try {
    failpoint::hit("service.drain");
  } catch (const RecoverableError &) {
    // A faulted drain entry still drains — shutdown is the one path
    // that must make progress no matter what. Recorded on the drain
    // journal event below.
    DrainFault = true;
  }
  // Close intake and give everything still queued its terminal
  // response: admitted-but-unstarted work sheds with `draining`.
  std::vector<DaemonRequest> Orphans = Queue.close();
  for (DaemonRequest &R : Orphans)
    shedResponse(R, ShedReason::Draining, Queue.retryAfterMs(0));
  // In-flight requests finish under the drain deadline; workers exit
  // once the queue is empty (pop() returns false after close()).
  bool Clean = true;
  {
    std::unique_lock<std::mutex> Lock(DrainMu);
    if (!DrainCv.wait_for(
            Lock,
            std::chrono::duration<double, std::milli>(Cfg.DrainDeadlineMs),
            [this] { return LiveWorkers == 0; })) {
      Clean = false;
      DrainTimeouts.fetch_add(1);
    }
  }
  // Joined unconditionally: compilations are finite, so this only
  // stretches past the deadline, never hangs; the deadline governs the
  // `clean` verdict, not whether we wait.
  for (std::thread &T : Pool)
    T.join();
  Pool.clear();
  CleanDrain.store(Clean);
  obs::JournalEvent("drain")
      .field("queued_shed",
             static_cast<unsigned long long>(Orphans.size()))
      .field("clean", Clean)
      .field("fault", DrainFault);
  obs::journal().flushFile();
}

//===----------------------------------------------------------------------===//
// Serve loop
//===----------------------------------------------------------------------===//

int Daemon::serve(std::istream &In, std::ostream &Out) {
  start([&Out](const std::string &Line) {
    Out << Line << '\n';
    Out.flush();
  });
  std::string Line;
  while (!stopRequested() && std::getline(In, Line)) {
    if (Line.empty())
      continue;
    submitLine(Line);
    if (ShutdownOp.load())
      break;
  }
  drainAndStop();
  return cleanDrain() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Chaos harness
//===----------------------------------------------------------------------===//

namespace {

/// xorshift64: deterministic, seedable, and good enough to shuffle
/// request shapes (no libc RNG state shared with anything else).
struct ChaosRng {
  std::uint64_t S;
  explicit ChaosRng(std::uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  std::uint64_t below(std::uint64_t N) { return next() % N; }
};

/// Small, fast-to-compile operators in the textual format, inlined into
/// request lines.
std::vector<std::string> chaosCorpus() {
  std::vector<Kernel> Kernels;
  Kernels.push_back(makeElementwiseChain("chaos_ew", 16, 16, 2, 1));
  Kernels.push_back(makeBiasActivation("chaos_bias", 16, 16, 1));
  Kernels.push_back(makeHostileOrderCopy("chaos_hostile", 16, 16, 1));
  Kernels.push_back(makeProducerConsumerPair("chaos_pc", 16, 16, 1));
  std::vector<std::string> Texts;
  for (const Kernel &K : Kernels) {
    std::string Error;
    std::optional<std::string> Text = printPinj(K, Error);
    if (Text)
      Texts.push_back(*Text);
  }
  return Texts;
}

} // namespace

ChaosReport service::runChaos(const DaemonConfig &Base, std::uint64_t Seed,
                              std::size_t Requests, const char *ForceSite) {
  ChaosReport Report;
  ChaosRng Rng(Seed);
  std::vector<std::string> Corpus = chaosCorpus();

  failpoint::clearAll();
  if (ForceSite)
    failpoint::activate(ForceSite);

  std::mutex LinesMu;
  std::vector<std::string> Lines;
  {
    Daemon D(Base);
    D.start([&](const std::string &L) {
      std::lock_guard<std::mutex> Lock(LinesMu);
      Lines.push_back(L);
    });
    const std::vector<const char *> &Sites = failpoint::allSites();
    for (std::size_t I = 0; I != Requests; ++I) {
      if (!ForceSite && Rng.below(5) == 0) {
        // Flip a random fail-point mid-stream; the invariant must hold
        // through arbitrary on/off interleavings.
        const char *Site = Sites[Rng.below(Sites.size())];
        if (Rng.below(2) == 0)
          failpoint::activate(Site);
        else
          failpoint::deactivate(Site);
      }
      std::uint64_t Kind = Rng.below(10);
      std::string Line;
      if (Kind == 0) {
        Line = "chaos: not json at all {{{";
      } else if (Kind == 1) {
        Line = "{\"id\":\"c" + std::to_string(I) + "\"}"; // No kernel.
      } else {
        Line = "{\"id\":\"c" + std::to_string(I) + "\",\"kernel\":\"" +
               json::escape(Corpus[Rng.below(Corpus.size())]) + "\"";
        switch (Rng.below(4)) {
        case 0:
          Line += ",\"deadline_ms\":0"; // Already expired.
          break;
        case 1:
          Line += ",\"deadline_ms\":0.5"; // Tight: may expire queued.
          break;
        case 2:
          Line += ",\"deadline_ms\":5000"; // Generous.
          break;
        default:
          break; // No deadline.
        }
        Line += "}";
      }
      D.submitLine(Line);
      ++Report.Submitted;
    }
    D.drainAndStop();
  }
  failpoint::clearAll();

  // Accounting: every submitted line must own exactly one response.
  std::map<std::uint64_t, std::size_t> PerLine;
  Report.Responses = Lines.size();
  for (const std::string &L : Lines) {
    std::string Error;
    std::optional<json::Value> V = json::parse(L, Error);
    if (!V || !V->isObject()) {
      Report.Violations.push_back("unparsable response: " + L);
      continue;
    }
    const json::Value *LineNo = V->find("line");
    if (!LineNo || !LineNo->isNumber()) {
      Report.Violations.push_back("response without line index: " + L);
      continue;
    }
    ++PerLine[static_cast<std::uint64_t>(LineNo->Num)];
    const json::Value *Status = V->find("status");
    std::string S = Status && Status->isString() ? Status->Str : "";
    if (S == "ok")
      ++Report.Ok;
    else if (S == "shed")
      ++Report.Shed;
    else if (S == "error")
      ++Report.Errors;
    else
      ++Report.Other;
  }
  for (std::uint64_t N = 1; N <= Report.Submitted; ++N) {
    std::size_t Count = PerLine.count(N) ? PerLine[N] : 0;
    if (Count != 1)
      Report.Violations.push_back("line " + std::to_string(N) + " got " +
                                  std::to_string(Count) +
                                  " responses (want exactly 1)");
  }
  for (const auto &KV : PerLine)
    if (KV.first == 0 || KV.first > Report.Submitted)
      Report.Violations.push_back("response for unknown line " +
                                  std::to_string(KV.first));
  return Report;
}
