//===- tests/daemon_test.cpp - Compilation daemon tests -------------------===//
//
// Covers src/service/Admission.h and src/service/Daemon.h: EDF ordering
// and FIFO tie-breaks in the admission queue, the shed policy (expired
// deadlines, bounded-queue overload, draining) with its depth-scaled
// retry_after_ms hints, deadline-to-budget derivation, the JSONL
// protocol in sync and async modes, graceful drain, the crash-recovery
// sweep (kill-mid-write quarantine, corruption paid once), the striped
// in-memory cache tier, and the chaos harness's
// one-terminal-response-per-request invariant across every fail-point
// site. This executable is the third binary the POLYINJECT_SANITIZE=
// thread CTest configuration runs (worker pool + admission queue +
// striped cache under TSan).
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Json.h"
#include "ir/Printer.h"
#include "pipeline/Pipeline.h"
#include "service/Admission.h"
#include "service/Cache.h"
#include "service/Daemon.h"
#include "obs/Metrics.h"
#include "service/Fingerprint.h"
#include "support/FailPoint.h"
#include "target/Target.h"

#include "TestKernels.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

using namespace pinj;
using namespace pinj::service;

namespace {

namespace fs = std::filesystem;
namespace json = obs::json;
using Clock = std::chrono::steady_clock;

/// A fresh per-test directory under the gtest temp root.
fs::path freshDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) / Name;
  fs::remove_all(Dir);
  return Dir;
}

/// A request with identity only (the queue-level tests never run it).
DaemonRequest namedRequest(const std::string &Id) {
  DaemonRequest R;
  R.ClientId = Id;
  return R;
}

DaemonRequest deadlineRequest(const std::string &Id, double Ms) {
  DaemonRequest R = namedRequest(Id);
  R.HasDeadline = true;
  R.DeadlineMs = Ms;
  R.Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(Ms));
  return R;
}

/// One compile request line over \p K, plus \p Extra raw JSON members.
std::string compileLine(const std::string &Id, const Kernel &K,
                        const std::string &Extra = std::string()) {
  std::string Error;
  std::optional<std::string> Text = printPinj(K, Error);
  EXPECT_TRUE(Text.has_value()) << Error;
  return "{\"id\":\"" + Id + "\",\"kernel\":\"" + json::escape(*Text) +
         "\"" + Extra + "}";
}

/// Parses a response line and returns the value of a member, or an
/// empty optional when absent.
std::optional<json::Value> member(const std::string &Line,
                                  const char *Key) {
  std::string Error;
  std::optional<json::Value> V = json::parse(Line, Error);
  if (!V || !V->isObject())
    return std::nullopt;
  const json::Value *M = V->find(Key);
  if (!M)
    return std::nullopt;
  return *M;
}

std::string statusOf(const std::string &Line) {
  std::optional<json::Value> S = member(Line, "status");
  return S && S->isString() ? S->Str : std::string();
}

/// Reads a whole file into a string.
std::string slurp(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::size_t filesIn(const fs::path &Dir) {
  std::size_t N = 0;
  if (fs::is_directory(Dir))
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.is_regular_file())
        ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Admission queue
//===----------------------------------------------------------------------===//

TEST(AdmissionQueueTest, EdfOrderingWithFifoTieBreak) {
  AdmissionConfig C;
  C.QueueCapacity = 16;
  AdmissionQueue Q(C);
  ShedDecision Shed;

  // Submit out of deadline order; deadline-less requests arrive first
  // but must sort after every deadlined one, FIFO among themselves.
  ASSERT_TRUE(Q.admit(namedRequest("nodeadline_a"), Shed));
  ASSERT_TRUE(Q.admit(namedRequest("nodeadline_b"), Shed));
  ASSERT_TRUE(Q.admit(deadlineRequest("far", 30000), Shed));
  ASSERT_TRUE(Q.admit(deadlineRequest("near", 10000), Shed));
  ASSERT_TRUE(Q.admit(deadlineRequest("mid", 20000), Shed));
  EXPECT_EQ(5u, Q.depth());

  DaemonRequest Out;
  const char *Expect[] = {"near", "mid", "far", "nodeadline_a",
                          "nodeadline_b"};
  for (const char *Id : Expect) {
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Id, Out.ClientId);
  }
  EXPECT_FALSE(Q.tryPop(Out));
  EXPECT_EQ(0u, Q.depth());
}

TEST(AdmissionQueueTest, ExpiredArrivalShedsImmediately) {
  AdmissionQueue Q(AdmissionConfig{});
  DaemonRequest R = namedRequest("late");
  R.HasDeadline = true;
  R.Deadline = Clock::now() - std::chrono::milliseconds(5);

  ShedDecision Shed;
  EXPECT_FALSE(Q.admit(std::move(R), Shed));
  EXPECT_EQ(ShedReason::DeadlineExpired, Shed.Reason);
  EXPECT_GT(Shed.RetryAfterMs, 0.0);
  EXPECT_EQ(0u, Q.depth()); // Never entered the queue.
}

TEST(AdmissionQueueTest, QueueFullBackoffScalesWithDepth) {
  AdmissionConfig C;
  C.QueueCapacity = 2;
  C.RetryHintMs = 10.0;
  AdmissionQueue Q(C);
  ShedDecision Shed;

  EXPECT_DOUBLE_EQ(10.0, Q.retryAfterMs(0));
  EXPECT_DOUBLE_EQ(30.0, Q.retryAfterMs(2));
  EXPECT_GT(Q.retryAfterMs(5), Q.retryAfterMs(1));

  ASSERT_TRUE(Q.admit(namedRequest("a"), Shed));
  ASSERT_TRUE(Q.admit(namedRequest("b"), Shed));
  EXPECT_FALSE(Q.admit(namedRequest("c"), Shed));
  EXPECT_EQ(ShedReason::QueueFull, Shed.Reason);
  // Shed at depth 2: the hint tells the client to wait for the whole
  // backlog plus itself.
  EXPECT_DOUBLE_EQ(30.0, Shed.RetryAfterMs);
  EXPECT_EQ(2u, Q.depth()); // The arrival was refused, not queued.
}

TEST(AdmissionQueueTest, CloseDrainsBacklogAndShedsNewArrivals) {
  AdmissionQueue Q(AdmissionConfig{});
  ShedDecision Shed;
  ASSERT_TRUE(Q.admit(namedRequest("a"), Shed));
  ASSERT_TRUE(Q.admit(namedRequest("b"), Shed));
  ASSERT_TRUE(Q.admit(namedRequest("c"), Shed));

  std::vector<DaemonRequest> Orphans = Q.close();
  EXPECT_EQ(3u, Orphans.size());
  EXPECT_TRUE(Q.closed());
  EXPECT_EQ(0u, Q.depth());

  // After close: new arrivals shed with draining, pop signals shutdown.
  EXPECT_FALSE(Q.admit(namedRequest("d"), Shed));
  EXPECT_EQ(ShedReason::Draining, Shed.Reason);
  EXPECT_GT(Shed.RetryAfterMs, 0.0);
  DaemonRequest Out;
  EXPECT_FALSE(Q.pop(Out));
}

//===----------------------------------------------------------------------===//
// Deadline-derived budgets
//===----------------------------------------------------------------------===//

TEST(BudgetDerivationTest, NeverExceedsRemainingDeadline) {
  SolverBudget Unlimited; // WallMs = 0 means no wall limit.
  for (double RemainingMs : {0.0, -3.0, 0.25, 1.0, 10.0, 1000.0}) {
    SolverBudget B = budgetForRemaining(RemainingMs, Unlimited);
    // A request with a deadline must always end up wall-limited —
    // WallMs <= 0 would mean "unlimited", inverting an expired
    // deadline into infinite solver time.
    EXPECT_GT(B.WallMs, 0.0) << RemainingMs;
    EXPECT_LE(B.WallMs, std::max(RemainingMs, 1e-3)) << RemainingMs;
  }
}

TEST(BudgetDerivationTest, TighterOfBaseAndRemainingWins) {
  SolverBudget Base;
  Base.WallMs = 5;
  Base.MaxPivots = 77;
  Base.MaxIlpNodes = 88;

  // Generous deadline: the base wall cap holds.
  SolverBudget Generous = budgetForRemaining(1000, Base);
  EXPECT_DOUBLE_EQ(5.0, Generous.WallMs);
  // Tight deadline: the remaining time wins.
  EXPECT_DOUBLE_EQ(2.0, budgetForRemaining(2, Base).WallMs);
  // Already expired: clamped to an instantly-exhausted budget, never a
  // negative or unlimited one.
  SolverBudget Expired = budgetForRemaining(-50, Base);
  EXPECT_GT(Expired.WallMs, 0.0);
  EXPECT_LE(Expired.WallMs, 1e-3);

  // Pivot/node caps pass through untouched in every case.
  for (const SolverBudget &B : {Generous, Expired}) {
    EXPECT_EQ(77u, B.MaxPivots);
    EXPECT_EQ(88u, B.MaxIlpNodes);
  }
}

//===----------------------------------------------------------------------===//
// Daemon protocol (sync mode: deterministic, submission-ordered)
//===----------------------------------------------------------------------===//

TEST(DaemonProtocolTest, SyncSessionCoversEveryStatus) {
  DaemonConfig Cfg;
  Cfg.Sync = true;
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  D.start([&Lines](const std::string &L) { Lines.push_back(L); });

  Kernel K = makeElementwise(8, 8);
  D.submitLine("{\"id\":\"p1\",\"op\":\"ping\"}");
  D.submitLine(compileLine("k1", K));
  D.submitLine(compileLine("k2", K));
  D.submitLine(compileLine("k3", K, ",\"deadline_ms\":0"));
  D.submitLine("this is not json");
  D.submitLine("{\"id\":\"x1\",\"op\":\"frobnicate\"}");
  D.submitLine("{\"id\":\"m1\"}");
  D.submitLine("{\"id\":\"s1\",\"op\":\"stats\"}");
  D.submitLine("{\"id\":\"q1\",\"op\":\"shutdown\"}");

  ASSERT_EQ(9u, Lines.size());
  EXPECT_EQ("pong", statusOf(Lines[0]));
  EXPECT_EQ("ok", statusOf(Lines[1]));
  EXPECT_NE(std::string::npos, Lines[1].find("\"cache\":\"miss\""));
  EXPECT_EQ("ok", statusOf(Lines[2]));
  EXPECT_NE(std::string::npos, Lines[2].find("\"cache\":\"hit\""));

  // Already-expired deadline: shed before any solver time is spent,
  // with a positive backoff hint.
  EXPECT_EQ("shed", statusOf(Lines[3]));
  EXPECT_NE(std::string::npos, Lines[3].find("\"reason\":\"deadline_expired\""));
  std::optional<json::Value> Retry = member(Lines[3], "retry_after_ms");
  ASSERT_TRUE(Retry.has_value());
  EXPECT_GT(Retry->Num, 0.0);

  // Malformed line: still one terminal response, identified by its
  // line index since no id ever parsed.
  EXPECT_EQ("error", statusOf(Lines[4]));
  EXPECT_NE(std::string::npos, Lines[4].find("\"line\":5"));
  EXPECT_NE(std::string::npos, Lines[4].find("malformed"));
  EXPECT_EQ("error", statusOf(Lines[5]));
  EXPECT_NE(std::string::npos, Lines[5].find("unknown op"));
  EXPECT_EQ("error", statusOf(Lines[6]));
  EXPECT_NE(std::string::npos, Lines[6].find("missing kernel"));

  // The stats snapshot reflects the session so far.
  EXPECT_EQ("stats", statusOf(Lines[7]));
  EXPECT_NE(std::string::npos, Lines[7].find("\"admitted\":2"));
  EXPECT_NE(std::string::npos, Lines[7].find("\"completed\":2"));
  EXPECT_NE(std::string::npos, Lines[7].find("\"shed\":1"));
  EXPECT_NE(std::string::npos, Lines[7].find("\"cache_hits\":1"));

  EXPECT_EQ("bye", statusOf(Lines[8]));
  EXPECT_TRUE(D.shutdownRequested());

  D.drainAndStop();
  EXPECT_TRUE(D.cleanDrain());
  DaemonStats S = D.stats();
  EXPECT_EQ(9u, S.Submitted);
  EXPECT_EQ(9u, S.Responses);
  EXPECT_EQ(2u, S.Admitted);
  EXPECT_EQ(2u, S.Completed);
  EXPECT_EQ(1u, S.ShedExpired);
  EXPECT_EQ(3u, S.ParseErrors);
}

TEST(DaemonProtocolTest, EveryLineCarriesItsSubmitIndex) {
  DaemonConfig Cfg;
  Cfg.Sync = true;
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  D.start([&Lines](const std::string &L) { Lines.push_back(L); });

  D.submitLine("{\"op\":\"ping\"}");
  D.submitLine("garbage");
  D.submitLine(compileLine("k", makeTranspose(6, 6)));
  D.drainAndStop();

  ASSERT_EQ(3u, Lines.size());
  for (std::size_t I = 0; I != Lines.size(); ++I) {
    std::optional<json::Value> LineNo = member(Lines[I], "line");
    ASSERT_TRUE(LineNo.has_value()) << Lines[I];
    EXPECT_DOUBLE_EQ(static_cast<double>(I + 1), LineNo->Num) << Lines[I];
  }
}

//===----------------------------------------------------------------------===//
// Async mode: worker pool, drain semantics (the TSan probes)
//===----------------------------------------------------------------------===//

TEST(DaemonAsyncTest, EveryLineGetsExactlyOneResponse) {
  DaemonConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Admission.QueueCapacity = 64;
  std::mutex Mu;
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  D.start([&](const std::string &L) {
    std::lock_guard<std::mutex> Lock(Mu);
    Lines.push_back(L);
  });

  // A mix of compiles (some deadlined), pings and malformed lines,
  // submitted as fast as intake can take them.
  std::vector<Kernel> Corpus = {makeElementwise(8, 8), makeTranspose(8, 6),
                                makeProducerConsumer(6, 8),
                                makeBadOrderCopy(6, 8)};
  std::size_t Submitted = 0;
  for (unsigned I = 0; I != 24; ++I) {
    const Kernel &K = Corpus[I % Corpus.size()];
    switch (I % 6) {
    case 0:
      D.submitLine("{\"op\":\"ping\"}");
      break;
    case 1:
      D.submitLine("not json " + std::to_string(I));
      break;
    case 2:
      D.submitLine(compileLine("d" + std::to_string(I), K,
                               ",\"deadline_ms\":5000"));
      break;
    default:
      D.submitLine(compileLine("d" + std::to_string(I), K));
      break;
    }
    ++Submitted;
  }
  D.drainAndStop();

  DaemonStats S = D.stats();
  EXPECT_EQ(Submitted, S.Submitted);
  EXPECT_EQ(Submitted, S.Responses);
  ASSERT_EQ(Submitted, Lines.size());

  // Exactly one response per submit index, whatever the interleaving.
  std::map<std::uint64_t, unsigned> PerLine;
  for (const std::string &L : Lines) {
    std::optional<json::Value> LineNo = member(L, "line");
    ASSERT_TRUE(LineNo.has_value()) << L;
    ++PerLine[static_cast<std::uint64_t>(LineNo->Num)];
  }
  for (std::uint64_t N = 1; N <= Submitted; ++N)
    EXPECT_EQ(1u, PerLine[N]) << "line " << N;
  // Accounting balances: every line ended as exactly one of these.
  EXPECT_EQ(Submitted, S.Completed + S.shedTotal() + S.ParseErrors +
                           S.FaultResponses + /*pings*/ 4u);
}

TEST(DaemonAsyncTest, SharedCpuSimdTargetIsRaceFreeAcrossWorkers) {
  // One const cpu-simd TargetModel instance shared by the whole worker
  // pool: every compile scores candidates through it concurrently, so
  // the TSan configuration of this binary probes the immutability
  // contract of target::TargetModel.
  DaemonConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Admission.QueueCapacity = 64;
  Cfg.Pipeline.Target = target::makeBuiltinTarget("cpu-simd");
  ASSERT_TRUE(Cfg.Pipeline.Target);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::mutex Mu;
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  D.start([&](const std::string &L) {
    std::lock_guard<std::mutex> Lock(Mu);
    Lines.push_back(L);
  });

  // Duplicate kernels on purpose: later submissions of the same kernel
  // race the cache tier against in-flight compiles of the same key.
  std::vector<Kernel> Corpus = {makeElementwise(8, 8), makeTranspose(8, 6),
                                makeProducerConsumer(6, 8),
                                makeBadOrderCopy(6, 8)};
  std::size_t Submitted = 0;
  for (unsigned I = 0; I != 16; ++I) {
    D.submitLine(compileLine("t" + std::to_string(I),
                             Corpus[I % Corpus.size()]));
    ++Submitted;
  }
  // Wait for every response before draining: drain sheds queued work,
  // and this test wants every compile to actually run through the
  // shared target.
  for (int Spin = 0; Spin != 2000 && D.stats().Responses < Submitted; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  D.drainAndStop();

  DaemonStats S = D.stats();
  EXPECT_EQ(Submitted, S.Submitted);
  EXPECT_EQ(Submitted, S.Responses);
  EXPECT_EQ(Submitted, S.Completed);
  ASSERT_EQ(Submitted, Lines.size());
  for (const std::string &L : Lines)
    EXPECT_EQ("ok", statusOf(L)) << L;

  // The cpu backend actually scored kernels from the worker threads.
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  EXPECT_GT(Delta.counter("target.cpu_kernels_simulated"), 0u);
}

TEST(DaemonAsyncTest, DrainShedsQueuedWorkWithTerminalResponses) {
  DaemonConfig Cfg;
  Cfg.Workers = 1; // One worker: the backlog cannot keep up with intake.
  Cfg.Admission.QueueCapacity = 64;
  std::mutex Mu;
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  D.start([&](const std::string &L) {
    std::lock_guard<std::mutex> Lock(Mu);
    Lines.push_back(L);
  });

  // Submitting 16 nontrivial compiles takes far less time than solving
  // one, so the immediate drain below always finds a queued backlog.
  for (unsigned I = 0; I != 16; ++I)
    D.submitLine(compileLine("q" + std::to_string(I),
                             makeRunningExample(10)));
  D.drainAndStop();
  EXPECT_TRUE(D.cleanDrain());

  DaemonStats S = D.stats();
  EXPECT_EQ(16u, S.Submitted);
  EXPECT_EQ(16u, S.Responses);
  ASSERT_EQ(16u, Lines.size());
  // Nothing admitted was silently dropped: every request either
  // completed or was shed with a terminal `draining` response.
  EXPECT_EQ(16u, S.Completed + S.ShedDraining);
  EXPECT_GE(S.ShedDraining, 1u);
  unsigned DrainingSheds = 0;
  for (const std::string &L : Lines)
    if (L.find("\"reason\":\"draining\"") != std::string::npos) {
      ++DrainingSheds;
      std::optional<json::Value> Retry = member(L, "retry_after_ms");
      ASSERT_TRUE(Retry.has_value()) << L;
      EXPECT_GT(Retry->Num, 0.0) << L;
    }
  EXPECT_EQ(S.ShedDraining, DrainingSheds);

  // Idempotent: a second drain changes nothing.
  D.drainAndStop();
  EXPECT_EQ(16u, D.stats().Responses);
}

//===----------------------------------------------------------------------===//
// Crash recovery: startup sweep and quarantine
//===----------------------------------------------------------------------===//

TEST(DaemonRecoveryTest, KillMidWriteIsQuarantinedAndWarmStateServes) {
  fs::path Dir = freshDir("daemon_recovery");
  Kernel K = makeRowReduction(6, 8);

  DaemonConfig Cfg;
  Cfg.Sync = true;
  Cfg.Cache.DiskDir = Dir.string();

  // Session 1 populates the disk tier.
  {
    std::vector<std::string> Lines;
    Daemon D(Cfg);
    D.start([&Lines](const std::string &L) { Lines.push_back(L); });
    D.submitLine(compileLine("w1", K));
    ASSERT_EQ(1u, Lines.size());
    ASSERT_EQ("ok", statusOf(Lines[0]));
    D.drainAndStop();
  }
  ASSERT_EQ(1u, filesIn(Dir));
  fs::path Valid;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.is_regular_file())
      Valid = E.path();
  std::string ValidBytes = slurp(Valid);
  ASSERT_FALSE(ValidBytes.empty());

  // Simulate the aftermath of a kill -9 mid-write: a torn temp file, a
  // committed-looking entry holding garbage, and a truncated entry
  // under another (valid-format) fingerprint name.
  {
    std::ofstream Torn(Dir / (Valid.stem().string() + ".psc.tmp.4242"),
                       std::ios::binary);
    Torn << ValidBytes.substr(0, ValidBytes.size() / 3);
  }
  {
    std::ofstream Garbage(Dir / "00112233445566778899aabbccddeeff.psc",
                          std::ios::binary);
    Garbage << std::string("\0\1\2 not a cache entry", 21);
  }
  {
    std::ofstream Truncated(Dir / "ffeeddccbbaa99887766554433221100.psc",
                            std::ios::binary);
    Truncated << ValidBytes.substr(0, ValidBytes.size() / 2);
  }

  // Session 2: the startup sweep quarantines all three damaged files
  // (never deletes), keeps the valid entry, and serves it warm.
  std::vector<std::string> Lines;
  Daemon D(Cfg);
  const RecoveryReport &Rec = D.recovery();
  EXPECT_EQ(4u, Rec.Cache.Scanned);
  EXPECT_EQ(1u, Rec.Cache.Kept);
  EXPECT_EQ(3u, Rec.Cache.Quarantined);
  EXPECT_EQ(3u, Rec.Cache.QuarantinedFiles.size());
  for (const std::string &Q : Rec.Cache.QuarantinedFiles)
    EXPECT_TRUE(fs::exists(Q)) << Q;
  EXPECT_EQ(3u, filesIn(Dir / "quarantine"));
  EXPECT_TRUE(fs::exists(Valid)); // The healthy entry stayed in place.
  EXPECT_EQ(1u, filesIn(Dir));

  D.start([&Lines](const std::string &L) { Lines.push_back(L); });
  D.submitLine(compileLine("warm", K));
  ASSERT_EQ(1u, Lines.size());
  EXPECT_EQ("ok", statusOf(Lines[0]));
  EXPECT_NE(std::string::npos, Lines[0].find("\"cache\":\"hit\""));
  EXPECT_EQ(1u, D.cache().stats().DiskHits);
  D.drainAndStop();
  fs::remove_all(Dir);
}

TEST(DaemonRecoveryTest, SweepOfMissingOrCleanDirIsEmpty) {
  SweepReport Missing = sweepCacheDir(
      (freshDir("daemon_sweep_missing") / "never_created").string());
  EXPECT_EQ(0u, Missing.Scanned);
  EXPECT_EQ(0u, Missing.Quarantined);
  SweepReport None = sweepCacheDir(std::string());
  EXPECT_EQ(0u, None.Scanned);
}

TEST(DaemonRecoveryTest, CorruptionIsPaidOnceNotPerMiss) {
  fs::path Dir = freshDir("daemon_pay_once");
  ScheduleCache::Config Cfg;
  Cfg.DiskDir = Dir.string();
  Kernel K = makeTranspose(8, 6);
  PipelineOptions Options;

  std::string Path;
  {
    ScheduleCache Writer(Cfg);
    Options.Cache = &Writer;
    runOperator(K, Options);
    Path = Writer.diskPathFor(fingerprintRequest(K, Options));
    ASSERT_TRUE(fs::exists(Path));
  }
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "corrupted by a crash";
  }

  ScheduleCache Reader(Cfg);
  Options.Cache = &Reader;
  CachedCompilation Out;
  // First miss pays: the reject moves the file into quarantine/.
  EXPECT_FALSE(Reader.lookup(K, Options, Out));
  EXPECT_EQ(1u, Reader.stats().DiskRejects);
  EXPECT_EQ(1u, Reader.stats().Quarantined);
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_EQ(1u, filesIn(Reader.quarantineDir()));
  // Subsequent misses are plain: no re-read, no re-reject.
  EXPECT_FALSE(Reader.lookup(K, Options, Out));
  EXPECT_EQ(1u, Reader.stats().DiskRejects);
  EXPECT_EQ(1u, Reader.stats().Quarantined);
  EXPECT_EQ(2u, Reader.stats().Misses);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Striped in-memory tier
//===----------------------------------------------------------------------===//

TEST(StripedCacheTest, StripingPreservesHitsAndAggregatesStats) {
  ScheduleCache::Config Cfg;
  Cfg.Stripes = 8;
  ScheduleCache Cache(Cfg);
  PipelineOptions Options;
  Options.Cache = &Cache;

  std::vector<Kernel> Kernels = {
      makeRunningExample(6),    makeElementwise(8, 10),
      makeTranspose(8, 6),      makeProducerConsumer(6, 8),
      makeBadOrderCopy(6, 8),   makeRowReduction(6, 8)};
  for (const Kernel &K : Kernels)
    EXPECT_FALSE(runOperator(K, Options).CacheHit);
  for (const Kernel &K : Kernels)
    EXPECT_TRUE(runOperator(K, Options).CacheHit) << K.Name;

  CacheStats S = Cache.stats();
  EXPECT_EQ(Kernels.size(), S.Hits);
  EXPECT_EQ(Kernels.size(), S.Misses);
  EXPECT_EQ(Kernels.size(), S.Stores);
  EXPECT_EQ(Kernels.size(), Cache.size());
  EXPECT_GT(Cache.memoryBytes(), 0u);
}

TEST(StripedCacheTest, MemoryCapEvictsUntilUnderBudget) {
  // Phase 1: measure what three entries cost uncapped.
  std::vector<Kernel> Kernels = {makeElementwise(6, 8), makeTranspose(6, 8),
                                 makeProducerConsumer(6, 8)};
  std::size_t Total = 0;
  {
    ScheduleCache Unbounded;
    PipelineOptions Options;
    Options.Cache = &Unbounded;
    for (const Kernel &K : Kernels)
      runOperator(K, Options);
    Total = Unbounded.memoryBytes();
    ASSERT_GT(Total, 0u);
  }

  // Phase 2: half that budget must force evictions but never exceed
  // the cap, and the cache keeps serving.
  ScheduleCache::Config Cfg;
  Cfg.MemoryCapBytes = Total / 2;
  ScheduleCache Capped(Cfg);
  PipelineOptions Options;
  Options.Cache = &Capped;
  for (const Kernel &K : Kernels)
    runOperator(K, Options);
  EXPECT_LE(Capped.memoryBytes(), Cfg.MemoryCapBytes);
  EXPECT_GE(Capped.stats().Evictions, 1u);
  EXPECT_LT(Capped.size(), Kernels.size());
  EXPECT_EQ(3u, Capped.stats().Stores);
}

TEST(StripedCacheTest, OversizedEntryIsServedButNotKept) {
  ScheduleCache::Config Cfg;
  Cfg.MemoryCapBytes = 16; // Smaller than any real entry.
  ScheduleCache Cache(Cfg);
  PipelineOptions Options;
  Options.Cache = &Cache;

  OperatorReport R = runOperator(makeElementwise(6, 6), Options);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_EQ(0u, Cache.size()); // Too large for its shard's slice.
  EXPECT_EQ(0u, Cache.memoryBytes());
  // The compile itself was unaffected; a rerun just misses again.
  EXPECT_FALSE(runOperator(makeElementwise(6, 6), Options).CacheHit);
}

//===----------------------------------------------------------------------===//
// Journal events
//===----------------------------------------------------------------------===//

TEST(DaemonJournalTest, AdmitShedAndDrainEventsCarryTheirFields) {
  obs::journal().disable();
  obs::journal().reset();
  obs::journal().enable();

  DaemonConfig Cfg;
  Cfg.Sync = true;
  {
    std::vector<std::string> Lines;
    Daemon D(Cfg);
    D.start([&Lines](const std::string &L) { Lines.push_back(L); });
    D.submitLine(compileLine("j1", makeElementwise(6, 6)));
    D.submitLine(compileLine("j2", makeElementwise(6, 6),
                             ",\"deadline_ms\":0"));
    D.drainAndStop();
  }
  std::vector<obs::JournalRecord> Snap = obs::journal().snapshot();
  obs::journal().disable();
  obs::journal().reset();

  auto fieldOf = [](const obs::JournalRecord &R,
                    const char *Key) -> std::string {
    for (const obs::Field &F : R.Fields)
      if (F.Key == Key)
        return F.Value;
    return std::string();
  };

  unsigned Admits = 0, Sheds = 0, Drains = 0;
  for (const obs::JournalRecord &R : Snap) {
    if (R.Type == "admit") {
      ++Admits;
      EXPECT_FALSE(R.RequestId.empty());
      EXPECT_EQ("j1", fieldOf(R, "client_id"));
      EXPECT_FALSE(fieldOf(R, "operator").empty());
    } else if (R.Type == "shed") {
      ++Sheds;
      EXPECT_FALSE(R.RequestId.empty());
      EXPECT_EQ("j2", fieldOf(R, "client_id"));
      EXPECT_EQ("deadline_expired", fieldOf(R, "reason"));
      EXPECT_GT(std::stod(fieldOf(R, "retry_after_ms")), 0.0);
    } else if (R.Type == "drain") {
      ++Drains;
      EXPECT_TRUE(R.RequestId.empty());
      EXPECT_EQ("true", fieldOf(R, "clean"));
      EXPECT_EQ("0", fieldOf(R, "queued_shed"));
    }
  }
  EXPECT_EQ(1u, Admits);
  EXPECT_EQ(1u, Sheds);
  EXPECT_EQ(1u, Drains);
}

//===----------------------------------------------------------------------===//
// Chaos: every fail-point site, multiple seeds
//===----------------------------------------------------------------------===//

class ChaosSiteSweep : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { failpoint::clearAll(); }
};

TEST_P(ChaosSiteSweep, InvariantHoldsWithSitePinnedActive) {
  DaemonConfig Cfg;
  Cfg.Workers = 2;
  Cfg.Admission.QueueCapacity = 8;
  for (std::uint64_t Seed : {1ull, 2ull, 3ull}) {
    ChaosReport R = runChaos(Cfg, Seed, 10, GetParam());
    EXPECT_TRUE(R.invariantHolds())
        << GetParam() << " seed " << Seed << ": " << R.Responses << "/"
        << R.Submitted << " responses, "
        << (R.Violations.empty() ? std::string("no violations")
                                 : R.Violations.front());
  }
}

INSTANTIATE_TEST_SUITE_P(AllSites, ChaosSiteSweep,
                         ::testing::ValuesIn(failpoint::allSites()));

TEST(ChaosTest, FreeRunningSeedsHoldInvariant) {
  DaemonConfig Cfg;
  Cfg.Workers = 4;
  Cfg.Admission.QueueCapacity = 8;
  for (std::uint64_t Seed : {11ull, 22ull, 33ull}) {
    ChaosReport R = runChaos(Cfg, Seed, 40);
    EXPECT_TRUE(R.invariantHolds())
        << "seed " << Seed << ": "
        << (R.Violations.empty() ? std::string("no violations")
                                 : R.Violations.front());
    EXPECT_EQ(40u, R.Submitted);
    EXPECT_EQ(40u, R.Responses);
  }
  // The registry is left clean for whatever test runs next.
  for (const char *Site : failpoint::allSites())
    EXPECT_FALSE(failpoint::isActive(Site)) << Site;
}

} // namespace
