//===- perfbench/src/Serve.cpp - The service layer's request stream -------===//
//
// The traced run of cold measures the service layer by driving an
// in-process service::Daemon with a memory-only schedule cache, fed by an
// open-loop generator: inline .pinj request lines are sent at a fixed
// rate on a seeded schedule, whatever the daemon's progress, and each
// request's latency runs from its due time to its terminal response.
// Request keys follow a zipf popularity over the corpus plus the six
// CNN/LSTM suites (BERT is left out so one 400 ms miss does not stall
// the stream). The cache holds fewer entries than there are distinct
// kernels, so the stream settles into a steady mix: most requests hit
// (scheduling skipped, all three configurations plus tvm re-simulated)
// and set the median, while LRU misses and the stores after them set the
// tail — reads and writes of one cache in one stream.
//
// The daemon runs in its synchronous mode: each request is parsed,
// admitted, compiled and answered on the thread that submits it, and
// that thread spins between due times. Nothing ever waits for a thread
// wake-up. On a 4-vCPU KVM guest whose host steals CPU time, the
// wake-ups of a worker pool idling between requests made latency move by
// 2x between identical runs; see README.md, which also says why serve is
// not a timed workload of its own.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchUtil.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "service/Daemon.h"
#include "service/Fingerprint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace perfbench;
using namespace pinj;

namespace {

/// Offered load of the nominal phase: about a fifth of what the daemon
/// sustains, so queueing comes from misses, not from overload.
constexpr double NominalRps = 200;
/// Share of --seconds the nominal phase lasts.
constexpr double NominalShare = 2.0 / 3;
/// Cache entries, for about 90 distinct fingerprints: the popular keys
/// stay cached, and keys past roughly rank 20 are evicted between their
/// requests and miss nearly every time, so which requests miss barely
/// depends on the seeded order.
constexpr std::size_t CacheEntries = 24;
/// The most popular keys are requested once before the nominal phase, so
/// it starts from the steady state instead of a burst of first misses.
constexpr std::size_t HotKeys = CacheEntries;
/// Zipf exponent of the key popularity.
constexpr double ZipfS = 1.0;
/// Fixed popularity ranking of the keys: which operators are hot is a
/// property of the workload, not of the run's seed.
constexpr std::uint64_t RankSeed = 0x5EEDF00D;

/// One operator the workload can request, with the answer a direct
/// runOperator gives for it.
struct Key {
  Kernel K;
  std::string Text; ///< The kernel in .pinj form.
  std::string Body; ///< `"kernel":"<escaped .pinj>"}`, the line's tail.
  std::string TimeUs, Speedup;
  bool Influenced = false;
};

struct Setup {
  std::vector<Key> Keys;
  std::vector<double> ZipfCdf;   ///< Over popularity ranks.
  std::vector<std::size_t> Rank; ///< Rank -> key index.
  std::unique_ptr<service::Daemon> D;
};

service::DaemonConfig daemonConfig() {
  service::DaemonConfig C;
  C.Sync = true;
  C.Cache.Capacity = CacheEntries;
  // No request may be shed.
  C.Admission.QueueCapacity = 1 << 20;
  C.TimingInResponses = true;
  return C;
}

void makeSetup(Setup &S) {
  std::vector<Kernel> Ops = corpus();
  for (Kernel &K : suites({"lstm", "mobilenetv2", "resnet50", "resnet101",
                           "resnext50", "vgg16"}))
    Ops.push_back(std::move(K));
  S.Keys.clear();
  PipelineOptions O = daemonConfig().Pipeline;
  for (Kernel &K : Ops) {
    Key Y;
    std::string Error;
    std::optional<std::string> Text = printPinj(K, Error);
    if (!Text) {
      std::fprintf(stderr, "perfbench: cannot render %s: %s\n",
                   K.Name.c_str(), Error.c_str());
      std::exit(1);
    }
    Y.Text = *Text;
    Y.Body = "\"kernel\":\"" + obs::json::escape(Y.Text) + "\"}";
    OperatorReport Rep = runOperator(K, O);
    Y.TimeUs = obs::json::number(Rep.Infl.TimeUs);
    Y.Speedup = obs::json::number(
        Rep.Infl.TimeUs > 0 ? Rep.Isl.TimeUs / Rep.Infl.TimeUs : 0);
    Y.Influenced = Rep.Influenced;
    Y.K = std::move(K);
    S.Keys.push_back(std::move(Y));
  }
  S.Rank.resize(S.Keys.size());
  for (std::size_t I = 0; I != S.Rank.size(); ++I)
    S.Rank[I] = I;
  Rng(RankSeed).shuffle(S.Rank);
  S.ZipfCdf.clear();
  double Sum = 0;
  for (std::size_t R = 0; R != S.Keys.size(); ++R)
    S.ZipfCdf.push_back(Sum += 1 / std::pow(R + 1.0, ZipfS));
  for (double &C : S.ZipfCdf)
    C /= Sum;
  S.D = std::make_unique<service::Daemon>(daemonConfig());
}

/// One request of a phase: which key, when it is due (ms after the
/// phase starts), and what happened to it.
struct Request {
  std::size_t Key = 0;
  double DueMs = 0;
  double LagMs = 0;
  double LatencyMs = 0;
  std::string Response;
  unsigned Responses = 0;
};

/// Matches daemon responses to the requests of the running phase.
struct Collector {
  std::mutex Mu;
  std::vector<Request> *Phase = nullptr; ///< Guarded by Mu.
  std::size_t Base = 0;                  ///< Id of Phase->front().
  Clock::time_point T0;
  std::size_t Stray = 0;

  void onResponse(const std::string &Line) {
    Clock::time_point Now = Clock::now();
    // Responses start {"id":"<n>", (service/Daemon.cpp responseHead).
    std::size_t Id = 0;
    bool HaveId = Line.rfind("{\"id\":\"", 0) == 0;
    for (std::size_t I = 7; HaveId && I < Line.size() && Line[I] != '"'; ++I)
      Id = Id * 10 + (Line[I] - '0');
    std::lock_guard<std::mutex> L(Mu);
    if (!HaveId || !Phase || Id < Base || Id - Base >= Phase->size()) {
      ++Stray;
      return;
    }
    Request &R = (*Phase)[Id - Base];
    if (++R.Responses == 1) {
      R.Response = Line;
      R.LatencyMs =
          std::chrono::duration<double, std::milli>(Now - T0).count() -
          R.DueMs;
    }
  }
};

/// A phase's requests: \p Count sends at a fixed rate \p Rps. Each key
/// is requested exactly its zipf share of \p Count times (largest
/// remainders rounded up), so every seed sends the same multiset of
/// kernels and the tail measures the service rather than how many
/// expensive keys one draw happened to contain. \p G orders the keys and
/// places each send at a random point of its own 1/Rps slot, which keeps
/// bursts bounded.
std::vector<Request> makePhase(const Setup &S, Rng &G, double Rps,
                               std::size_t Count) {
  std::vector<std::size_t> Keys;
  std::vector<std::pair<double, std::size_t>> Remainders;
  double Prev = 0;
  for (std::size_t Rank = 0; Rank != S.Rank.size(); ++Rank) {
    double Share = (S.ZipfCdf[Rank] - Prev) * Count;
    Prev = S.ZipfCdf[Rank];
    std::size_t Whole = static_cast<std::size_t>(Share);
    Keys.insert(Keys.end(), Whole, S.Rank[Rank]);
    Remainders.push_back({Whole - Share, Rank});
  }
  std::sort(Remainders.begin(), Remainders.end());
  for (std::size_t I = 0; Keys.size() < Count; ++I)
    Keys.push_back(S.Rank[Remainders[I].second]);
  G.shuffle(Keys);
  std::vector<Request> P(Count);
  for (std::size_t I = 0; I != Count; ++I) {
    P[I].Key = Keys[I];
    P[I].DueMs = (I + G.uniform()) * 1000 / Rps;
  }
  return P;
}

/// Sends a phase open-loop: each line goes out at its due time, or as
/// soon as the daemon returns if it is still busy with earlier ones.
void runPhase(Setup &S, Collector &C, std::vector<Request> &P,
                std::size_t &NextId) {
  Clock::time_point T0 = Clock::now();
  {
    std::lock_guard<std::mutex> L(C.Mu);
    C.Phase = &P;
    C.Base = NextId;
    C.T0 = T0;
  }
  std::string Line;
  for (std::size_t I = 0; I != P.size(); ++I) {
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(P[I].DueMs));
    while (Clock::now() < Due) {
    }
    P[I].LagMs = msSince(T0) - P[I].DueMs;
    Line = "{\"id\":\"" + std::to_string(NextId + I) + "\"," +
           S.Keys[P[I].Key].Body;
    S.D->submitLine(Line);
  }
  {
    std::lock_guard<std::mutex> L(C.Mu);
    C.Phase = nullptr;
  }
  NextId += P.size();
}

/// Checks every request of a phase got exactly one ok response equal to
/// the direct runOperator answer for its kernel.
void checkPhase(const Setup &S, const std::vector<Request> &P, Result &R) {
  for (const Request &Q : P) {
    ++R.Attempted;
    const Key &Y = S.Keys[Q.Key];
    if (Q.Responses != 1) {
      fail(R, Y.K.Name + ": " + std::to_string(Q.Responses) +
                  " terminal responses");
      continue;
    }
    std::string Error;
    std::optional<obs::json::Value> V = obs::json::parse(Q.Response, Error);
    auto Str = [&](const char *Field) {
      const obs::json::Value *F = V ? V->find(Field) : nullptr;
      return F && F->isString() ? F->Str : std::string();
    };
    auto Num = [&](const char *Field) {
      const obs::json::Value *F = V ? V->find(Field) : nullptr;
      return F && F->isNumber() ? obs::json::number(F->Num) : std::string();
    };
    const obs::json::Value *Infl = V ? V->find("influenced") : nullptr;
    if (Str("status") != "ok" || Str("operator") != Y.K.Name ||
        Num("degraded") != obs::json::number(0) ||
        Num("time_us") != Y.TimeUs || Num("speedup") != Y.Speedup ||
        !Infl || !Infl->isBool() || Infl->BoolVal != Y.Influenced)
      fail(R, Y.K.Name + ": response differs from runOperator: " +
                  Q.Response);
  }
}

/// The daemon-side wall time of a response, in ms.
double wallMs(const Request &Q) {
  std::string Error;
  std::optional<obs::json::Value> V = obs::json::parse(Q.Response, Error);
  const obs::json::Value *F = V ? V->find("wall_us") : nullptr;
  return F && F->isNumber() ? F->Num / 1000 : 0;
}

bool isHit(const Request &Q) {
  return Q.Response.find("\"cache\":\"hit\"") != std::string::npos;
}

/// Warms the cache with the hottest keys (unmeasured, still checked),
/// then runs the nominal phase.
std::vector<Request> nominalPhase(const Args &A, Setup &S, Collector &C,
                                  Rng &G, std::size_t &NextId, Result &R) {
  std::vector<Request> Warm(HotKeys);
  for (std::size_t I = 0; I != HotKeys; ++I)
    Warm[I].Key = S.Rank[I];
  runPhase(S, C, Warm, NextId);
  checkPhase(S, Warm, R);

  std::vector<Request> P = makePhase(
      S, G, NominalRps,
      static_cast<std::size_t>(NominalRps * A.Seconds * NominalShare));
  runPhase(S, C, P, NextId);
  checkPhase(S, P, R);
  return P;
}

} // namespace

/// Drives the nominal phase through the daemon and records the
/// daemon-side service metrics into \p R, then replays the same stream
/// on this thread, once through runOperator and once stage by stage,
/// each against its own cache warmed like the daemon's, so both see the
/// daemon's hits and misses. Only the service layer's own calls are
/// reported; the stages the stream replays belong to the calling
/// workload's layers.
void perfbench::traceService(const Args &A, Result &R) {
  Setup S;
  makeSetup(S);
  LayerLog Log;
  double UntracedMs = 0, TracedMs = 0;
  Collector C;
  S.D->start([&C](const std::string &Line) { C.onResponse(Line); });
  Rng G(A.Seed);
  std::size_t NextId = 0;
  obs::MetricsRegistry &M = obs::metrics();
  std::uint64_t Hits0 = M.counter("service.cache.hits").value();
  std::uint64_t Misses0 = M.counter("service.cache.misses").value();
  std::vector<Request> Nominal = nominalPhase(A, S, C, G, NextId, R);
  double Hits = M.counter("service.cache.hits").value() - Hits0;
  double Misses = M.counter("service.cache.misses").value() - Misses0;
  S.D->drainAndStop();
  if (C.Stray)
    fail(R, std::to_string(C.Stray) + " responses matched no request");

  std::vector<double> HitMs, MissMs, QueueMs, Lag;
  for (const Request &Q : Nominal) {
    double Wall = wallMs(Q);
    (isHit(Q) ? HitMs : MissMs).push_back(Wall);
    QueueMs.push_back(Q.LatencyMs - Wall);
    Lag.push_back(Q.LagMs);
  }
  R.add("service.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
        "ratio", static_cast<std::size_t>(Hits + Misses));
  R.add("service.hit_ms", median(HitMs), "ms", HitMs.size(), "p50");
  R.add("service.miss_ms", median(MissMs), "ms", MissMs.size(), "p50");
  R.add("service.queue_ms", median(QueueMs), "ms", QueueMs.size(), "p50");
  R.add("service.shed", S.D->stats().shedTotal(), "count");
  R.add("loadgen.lag_ms", median(Lag), "ms", Lag.size(), "p50");
  R.add("loadgen.lag_max_ms", *std::max_element(Lag.begin(), Lag.end()),
        "ms", Lag.size(), "max");

  service::ScheduleCache Untraced(daemonConfig().Cache),
      Replay(daemonConfig().Cache);
  PipelineOptions O = daemonConfig().Pipeline;
  PipelineOptions UO = O, RO = O;
  UO.Cache = &Untraced;
  RO.Cache = &Replay;
  for (std::size_t I = 0; I != HotKeys; ++I) {
    runOperator(S.Keys[S.Rank[I]].K, UO);
    runOperator(S.Keys[S.Rank[I]].K, RO);
  }
  for (std::size_t N = 0; N != Nominal.size(); ++N) {
    const Key &Y = S.Keys[Nominal[N].Key];
    OperatorReport Rep;
    Replayed Rp;
    auto RunUntraced = [&] {
      Clock::time_point T0 = Clock::now();
      Rep = runOperator(Y.K, UO);
      UntracedMs += msSince(T0);
    };
    auto RunTraced = [&] {
      Clock::time_point T0 = Clock::now();
      CachedCompilation Hit;
      bool IsHit = Log.time("service.lookup", [&] {
        return Replay.lookup(Y.K, RO, Hit) && Hit.Isl.compatibleWith(Y.K) &&
               Hit.Novec.compatibleWith(Y.K) && Hit.Infl.compatibleWith(Y.K);
      });
      Rp = replayStages(Y.K, RO, IsHit ? &Hit : nullptr, Log);
      if (!IsHit)
        Log.time("service.store", [&] {
          Replay.store(Y.K, RO,
                       {Rp.Isl, Rp.Novec, Rp.Infl, Rp.Influenced,
                        Rp.VecEligible});
        });
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
    std::string Diff = compareReplay(Rp, Rep);
    if (Rep.degraded() || !Diff.empty())
      fail(R, Y.K.Name + ": traced replay differs from runOperator: " +
                  (Rep.degraded() ? std::string("degraded") : Diff));
    // Probes of work the daemon does outside runOperator (parsing the
    // request) or inside the lookup (fingerprinting), timed on their own.
    std::string Error;
    Log.time("ir.parse", [&] { return parseKernel(Y.Text, Error); });
    Log.time("service.fingerprint",
             [&] { return service::fingerprintRequest(Y.K, O); });
  }

  LayerLog Service;
  for (const auto &[Layer, Calls] : Log.CallMs)
    if (Layer.rfind("service.", 0) == 0 || Layer.rfind("ir.", 0) == 0)
      Service.CallMs[Layer] = Calls;
  Service.Passes = 1;
  std::printf("\nservice layer, over the zipfian request stream:");
  addLayers(Service, R);
  std::printf("service stream: runOperator %.3f ms, stage calls %.3f ms, "
              "unattributed %.2f%%, traced replay %.3f ms\n",
              UntracedMs, Log.stageTotalMs(),
              UntracedMs > 0
                  ? 100 * (UntracedMs - Log.stageTotalMs()) / UntracedMs
                  : 0,
              TracedMs);
}
