//===- tools/polyinject-stats.cpp - Offline journal/metrics analyzer ------===//
//
// Aggregates the observability artifacts one or more polyinject-opt runs
// leave behind — the structured event journal (--journal), the metrics
// sidecar (--metrics-json) and the Chrome trace (--trace-json) — into a
// fleet-style summary, validates their schema, and diffs two runs for
// stage-time regressions with a CI-friendly exit code.
//
// Usage:
//   polyinject-stats [options] journal.jsonl [more.jsonl ...]
//   polyinject-stats --diff A.jsonl B.jsonl [options]
//
//     --report=FILE        cross-check request ids against the metrics
//                          sidecar and fold its per-operator flags in
//     --trace=FILE         cross-check request ids against a Chrome
//                          trace-event file
//     --exposition=FILE    validate a Prometheus exposition file
//                          (--metrics-exposition output)
//     --check-schema       exit 1 on any schema violation (malformed
//                          record, missing field, unpaired request,
//                          id mismatch across artifacts)
//     --diff A B           compare run B against baseline A; exit 1
//                          when a stage regresses past both thresholds
//     --threshold-pct=N    relative stage-time regression threshold
//                          (default 10)
//     --min-regress-us=X   absolute stage-time regression floor
//                          (default 1000); both must be exceeded
//
// The summary reports per-stage latency percentiles (p50/p90/p99 from
// the journal's stage_end events, estimated with the same quarter-octave
// histogram scheme the process metrics use), cache and tuning hit rates,
// surrogate-search activity (the cost model's "surrogate" events, with
// candidates-ranked and evaluations-saved totals — the journal-side view
// of the model.predictions / tune.surrogate_evals_saved counters),
// degradation causes, daemon admission-control activity (admit/shed/
// drain/quarantine events from polyinject-serve, with shed reasons and
// the positive-retry_after_ms contract validated), and branch-and-bound
// effort grouped by operator family (operator name with trailing
// size/variant tokens stripped).
//
// Two identical runs always diff clean: journal timestamps differ, but
// every compared quantity is either a deterministic counter (exact
// compare, reported but never fatal) or a wall-clock stage time guarded
// by both thresholds.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/Support.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace pinj;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--report=FILE] [--trace=FILE] "
               "[--exposition=FILE] [--check-schema] journal.jsonl "
               "[more.jsonl ...]\n"
               "       %s --diff A.jsonl B.jsonl [--threshold-pct=N] "
               "[--min-regress-us=X]\n",
               Argv0, Argv0);
}

/// Branch-and-bound effort accumulated for one operator family.
struct FamilyEffort {
  std::uint64_t Solves = 0;
  std::uint64_t Nodes = 0;
  std::uint64_t Pivots = 0;
  std::uint64_t MaxDepth = 0;
};

/// Everything the analyzer extracts from one or more journals.
struct JournalStats {
  std::size_t Records = 0;
  std::size_t Requests = 0;
  std::size_t CacheLookups = 0;
  std::size_t CacheHits = 0;
  std::size_t CacheStores = 0;
  std::size_t TuningEvents = 0;
  std::size_t TuningApplied = 0;
  std::size_t Degradations = 0;

  // Surrogate-guided searches (tune/Strategy.cpp "surrogate" events).
  std::size_t SurrogateSearches = 0;
  std::size_t SurrogateFound = 0;
  std::uint64_t SurrogateCandidates = 0;
  std::uint64_t SurrogateEvalsSaved = 0;

  // Daemon admission-control events (service/Daemon.h).
  std::size_t Admits = 0;
  std::size_t Sheds = 0;
  std::size_t Drains = 0;
  std::size_t Quarantines = 0;
  /// Shed reason ("deadline_expired", ...) -> occurrences.
  std::map<std::string, std::size_t> ShedReasons;

  /// All request ids seen on any record.
  std::set<std::string> Ids;
  /// request_start / request_end occurrences per id (pairing check).
  std::map<std::string, std::size_t> Starts;
  std::map<std::string, std::size_t> Ends;
  /// Request id -> operator name, from request_start.
  std::map<std::string, std::string> Operator;

  /// Per-stage wall time: histogram (percentiles) + exact total.
  std::map<std::string, obs::Histogram> StageDur;
  std::map<std::string, double> StageTotalUs;

  /// "config code at site" -> occurrences.
  std::map<std::string, std::size_t> DegradationCauses;
  /// Operator family -> accumulated solver effort.
  std::map<std::string, FamilyEffort> Families;

  /// Schema violations found while loading, "<file>:<line>: <what>".
  std::vector<std::string> SchemaErrors;
};

/// The operator family: the name with trailing size/variant tokens
/// (all-digit or single-character '_'-separated segments) stripped, so
/// "softmax_like_b" and "softmax_like_a" aggregate together while
/// "bias_relu" stays itself.
std::string operatorFamily(const std::string &Name) {
  std::vector<std::string> Tokens;
  std::stringstream In(Name);
  std::string T;
  while (std::getline(In, T, '_'))
    Tokens.push_back(T);
  while (Tokens.size() > 1) {
    const std::string &Last = Tokens.back();
    bool AllDigits = !Last.empty();
    for (char C : Last)
      AllDigits = AllDigits && std::isdigit(static_cast<unsigned char>(C));
    if (!(AllDigits || Last.size() == 1))
      break;
    Tokens.pop_back();
  }
  std::string Out;
  for (const std::string &Tok : Tokens)
    Out += (Out.empty() ? "" : "_") + Tok;
  return Out.empty() ? Name : Out;
}

double numberField(const obs::json::Value &Rec, const char *Key) {
  const obs::json::Value *V = Rec.find(Key);
  return V && V->isNumber() ? V->Num : 0;
}

std::string stringField(const obs::json::Value &Rec, const char *Key) {
  const obs::json::Value *V = Rec.find(Key);
  return V && V->isString() ? V->Str : std::string();
}

bool boolField(const obs::json::Value &Rec, const char *Key) {
  const obs::json::Value *V = Rec.find(Key);
  return V && V->isBool() && V->BoolVal;
}

/// Loads one journal file into \p Stats. Malformed lines and schema
/// violations are recorded in Stats.SchemaErrors; the analyzable records
/// are aggregated either way. \returns false when the file is unreadable.
bool loadJournal(const std::string &Path, JournalStats &Stats) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return false;
  }
  std::string Line;
  std::size_t LineNo = 0;
  auto Violation = [&](const std::string &What) {
    Stats.SchemaErrors.push_back(Path + ":" + std::to_string(LineNo) +
                                 ": " + What);
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string Error;
    std::optional<obs::json::Value> Rec = obs::json::parse(Line, Error);
    if (!Rec || !Rec->isObject()) {
      Violation(Rec ? "record is not a JSON object" : Error);
      continue;
    }
    ++Stats.Records;

    const obs::json::Value *Ts = Rec->find("ts_us");
    if (!Ts || !Ts->isNumber())
      Violation("missing or non-numeric ts_us");
    const obs::json::Value *TypeV = Rec->find("type");
    if (!TypeV || !TypeV->isString() || TypeV->Str.empty()) {
      Violation("missing or empty type");
      continue;
    }
    const std::string &Type = TypeV->Str;

    std::string Rid = stringField(*Rec, "request_id");
    // Process-scoped events legitimately carry no request id: batch
    // lifecycle markers, daemon drains, and quarantines found by the
    // startup sweep (no request exists yet).
    bool BatchEvent = Type.rfind("batch_", 0) == 0 || Type == "drain" ||
                      Type == "quarantine";
    if (Rid.empty() && !BatchEvent)
      Violation("missing request_id on '" + Type + "' record");
    if (!Rid.empty())
      Stats.Ids.insert(Rid);

    if (Type == "request_start") {
      ++Stats.Requests;
      ++Stats.Starts[Rid];
      Stats.Operator[Rid] = stringField(*Rec, "operator");
    } else if (Type == "request_end") {
      ++Stats.Ends[Rid];
    } else if (Type == "stage_end") {
      std::string Stage = stringField(*Rec, "stage");
      double DurUs = numberField(*Rec, "dur_us");
      if (Stage.empty()) {
        Violation("stage_end without stage");
      } else {
        Stats.StageDur[Stage].observe(DurUs);
        Stats.StageTotalUs[Stage] += DurUs;
      }
    } else if (Type == "solve_end") {
      FamilyEffort &F =
          Stats.Families[operatorFamily(Stats.Operator.count(Rid)
                                            ? Stats.Operator[Rid]
                                            : std::string("<unknown>"))];
      ++F.Solves;
      F.Nodes += static_cast<std::uint64_t>(numberField(*Rec, "nodes"));
      F.Pivots += static_cast<std::uint64_t>(numberField(*Rec, "pivots"));
      std::uint64_t Depth =
          static_cast<std::uint64_t>(numberField(*Rec, "max_depth"));
      F.MaxDepth = std::max(F.MaxDepth, Depth);
    } else if (Type == "cache_lookup") {
      ++Stats.CacheLookups;
      if (boolField(*Rec, "hit"))
        ++Stats.CacheHits;
    } else if (Type == "cache_store") {
      ++Stats.CacheStores;
    } else if (Type == "tuning") {
      ++Stats.TuningEvents;
      if (boolField(*Rec, "applied"))
        ++Stats.TuningApplied;
    } else if (Type == "surrogate") {
      ++Stats.SurrogateSearches;
      if (boolField(*Rec, "found"))
        ++Stats.SurrogateFound;
      double Candidates = numberField(*Rec, "candidates");
      if (Candidates <= 0)
        Violation("surrogate without a positive candidates count");
      Stats.SurrogateCandidates += static_cast<std::uint64_t>(Candidates);
      Stats.SurrogateEvalsSaved +=
          static_cast<std::uint64_t>(numberField(*Rec, "evals_saved"));
      // The strategy contract: it never evaluates more than it ranks.
      if (numberField(*Rec, "evals_saved") > Candidates)
        Violation("surrogate saved more evaluations than candidates");
    } else if (Type == "degradation") {
      ++Stats.Degradations;
      std::string Cause = stringField(*Rec, "config") + " " +
                          stringField(*Rec, "code") + " at " +
                          stringField(*Rec, "site");
      ++Stats.DegradationCauses[Cause];
    } else if (Type == "admit") {
      ++Stats.Admits;
    } else if (Type == "shed") {
      ++Stats.Sheds;
      std::string Reason = stringField(*Rec, "reason");
      if (Reason.empty())
        Violation("shed without reason");
      else
        ++Stats.ShedReasons[Reason];
      // The shedding contract: a shed response always carries a
      // positive backoff hint.
      if (numberField(*Rec, "retry_after_ms") <= 0)
        Violation("shed with non-positive retry_after_ms");
    } else if (Type == "drain") {
      ++Stats.Drains;
      const obs::json::Value *Clean = Rec->find("clean");
      if (!Clean || !Clean->isBool())
        Violation("drain without clean flag");
    } else if (Type == "quarantine") {
      ++Stats.Quarantines;
      if (stringField(*Rec, "file").empty())
        Violation("quarantine without file");
    }
  }

  // Pairing: every started request ends exactly as often, and no end
  // arrives without a start.
  for (const auto &[Rid, N] : Stats.Starts) {
    auto It = Stats.Ends.find(Rid);
    std::size_t EndN = It == Stats.Ends.end() ? 0 : It->second;
    if (EndN != N)
      Stats.SchemaErrors.push_back(
          Path + ": request " + Rid + " started " + std::to_string(N) +
          "x but ended " + std::to_string(EndN) + "x");
  }
  for (const auto &[Rid, N] : Stats.Ends)
    if (!Stats.Starts.count(Rid))
      Stats.SchemaErrors.push_back(Path + ": request " + Rid +
                                   " ended without request_start");
  return true;
}

/// Parses one whole-file JSON document; exits with a diagnostic on I/O
/// or parse failure (cross-check inputs are expected to be well-formed).
obs::json::Value loadJsonFile(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    std::exit(1);
  }
  std::string Error;
  std::optional<obs::json::Value> V = obs::json::parse(Text, Error);
  if (!V) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    std::exit(1);
  }
  return std::move(*V);
}

/// Cross-checks the metrics sidecar: every operator record must carry a
/// request id the journal also saw.
void checkReport(const std::string &Path, JournalStats &Stats) {
  obs::json::Value Doc = loadJsonFile(Path);
  const obs::json::Value *Ops = Doc.find("operators");
  if (!Ops || !Ops->isArray()) {
    Stats.SchemaErrors.push_back(Path + ": missing operators array");
    return;
  }
  for (const obs::json::Value &Op : Ops->Items) {
    std::string Name = stringField(Op, "name");
    std::string Rid = stringField(Op, "request_id");
    if (Rid.empty())
      Stats.SchemaErrors.push_back(Path + ": operator " + Name +
                                   " has no request_id");
    else if (!Stats.Ids.count(Rid))
      Stats.SchemaErrors.push_back(Path + ": operator " + Name +
                                   " request_id " + Rid +
                                   " not present in the journal");
  }
}

/// Cross-checks the Chrome trace: every span arg request_id must be a
/// journal id.
void checkTrace(const std::string &Path, JournalStats &Stats) {
  obs::json::Value Doc = loadJsonFile(Path);
  const obs::json::Value *Events = Doc.find("traceEvents");
  if (!Events || !Events->isArray()) {
    Stats.SchemaErrors.push_back(Path + ": missing traceEvents array");
    return;
  }
  std::size_t Tagged = 0;
  for (const obs::json::Value &E : Events->Items) {
    const obs::json::Value *Args = E.find("args");
    if (!Args)
      continue;
    std::string Rid = stringField(*Args, "request_id");
    if (Rid.empty())
      continue;
    ++Tagged;
    if (!Stats.Ids.count(Rid))
      Stats.SchemaErrors.push_back(Path + ": trace request_id " + Rid +
                                   " not present in the journal");
  }
  if (Tagged == 0)
    Stats.SchemaErrors.push_back(Path +
                                 ": no trace event carries a request_id");
}

/// Validates a Prometheus exposition file: comment lines plus
/// "pinj_<name>[{labels}] <value>" samples, at least one sample.
void checkExposition(const std::string &Path, JournalStats &Stats) {
  std::ifstream In(Path);
  if (!In) {
    Stats.SchemaErrors.push_back(Path + ": cannot open");
    return;
  }
  std::string Line;
  std::size_t LineNo = 0;
  std::size_t Samples = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::size_t Space = Line.rfind(' ');
    bool Ok = Line.rfind("pinj_", 0) == 0 && Space != std::string::npos &&
              Space + 1 < Line.size();
    if (Ok) {
      char *End = nullptr;
      std::strtod(Line.c_str() + Space + 1, &End);
      Ok = End == Line.c_str() + Line.size();
    }
    if (!Ok)
      Stats.SchemaErrors.push_back(Path + ":" + std::to_string(LineNo) +
                                   ": malformed exposition line");
    else
      ++Samples;
  }
  if (Samples == 0)
    Stats.SchemaErrors.push_back(Path + ": no pinj_ samples");
}

void printSummary(const JournalStats &Stats) {
  std::printf("journal: %zu records, %zu requests, %zu distinct ids\n",
              Stats.Records, Stats.Requests, Stats.Ids.size());
  if (Stats.CacheLookups)
    std::printf("cache: %zu lookups, %zu hits (%.1f%%), %zu stores\n",
                Stats.CacheLookups, Stats.CacheHits,
                100.0 * static_cast<double>(Stats.CacheHits) /
                    static_cast<double>(Stats.CacheLookups),
                Stats.CacheStores);
  if (Stats.TuningEvents)
    std::printf("tuning: %zu events, %zu applied (%.1f%%)\n",
                Stats.TuningEvents, Stats.TuningApplied,
                100.0 * static_cast<double>(Stats.TuningApplied) /
                    static_cast<double>(Stats.TuningEvents));

  if (Stats.SurrogateSearches)
    std::printf("surrogate: %zu searches, %zu improved, %llu candidates "
                "ranked, %llu evaluations saved\n",
                Stats.SurrogateSearches, Stats.SurrogateFound,
                static_cast<unsigned long long>(Stats.SurrogateCandidates),
                static_cast<unsigned long long>(Stats.SurrogateEvalsSaved));

  if (Stats.Admits || Stats.Sheds || Stats.Drains || Stats.Quarantines) {
    std::printf("service: %zu admitted, %zu shed, %zu drain(s), "
                "%zu quarantined\n",
                Stats.Admits, Stats.Sheds, Stats.Drains,
                Stats.Quarantines);
    for (const auto &[Reason, N] : Stats.ShedReasons)
      std::printf("  shed %zux %s\n", N, Reason.c_str());
  }

  if (!Stats.StageDur.empty()) {
    std::printf("stage latency (us):\n");
    std::printf("  %-10s %8s %10s %10s %10s %12s\n", "stage", "count",
                "p50", "p90", "p99", "total");
    for (const auto &[Stage, H] : Stats.StageDur) {
      obs::HistogramSummary S = H.summary();
      std::printf("  %-10s %8llu %10.1f %10.1f %10.1f %12.1f\n",
                  Stage.c_str(),
                  static_cast<unsigned long long>(S.Count),
                  S.percentile(50), S.percentile(90), S.percentile(99),
                  Stats.StageTotalUs.count(Stage)
                      ? Stats.StageTotalUs.at(Stage)
                      : 0.0);
    }
  }

  if (Stats.Degradations) {
    std::printf("degradations: %zu\n", Stats.Degradations);
    for (const auto &[Cause, N] : Stats.DegradationCauses)
      std::printf("  %zux %s\n", N, Cause.c_str());
  }

  if (!Stats.Families.empty()) {
    std::printf("b&b effort by operator family:\n");
    std::printf("  %-20s %8s %10s %10s %10s\n", "family", "solves",
                "nodes", "pivots", "max_depth");
    for (const auto &[Family, F] : Stats.Families)
      std::printf("  %-20s %8llu %10llu %10llu %10llu\n", Family.c_str(),
                  static_cast<unsigned long long>(F.Solves),
                  static_cast<unsigned long long>(F.Nodes),
                  static_cast<unsigned long long>(F.Pivots),
                  static_cast<unsigned long long>(F.MaxDepth));
  }
}

/// Diffs run \p B against baseline \p A. Deterministic counters are
/// compared exactly and reported; only wall-clock stage times can fail
/// the diff, and only past both thresholds. \returns the number of
/// regressions.
std::size_t diffStats(const JournalStats &A, const JournalStats &B,
                      double ThresholdPct, double MinRegressUs) {
  std::size_t Regressions = 0;
  auto CompareCounter = [](const char *Name, std::size_t VA,
                           std::size_t VB) {
    if (VA != VB)
      std::printf("counter %-18s %8zu -> %-8zu\n", Name, VA, VB);
  };
  CompareCounter("requests", A.Requests, B.Requests);
  CompareCounter("cache_hits", A.CacheHits, B.CacheHits);
  CompareCounter("degradations", A.Degradations, B.Degradations);
  CompareCounter("surrogate_searches", A.SurrogateSearches,
                 B.SurrogateSearches);
  CompareCounter("surrogate_evals_saved",
                 static_cast<std::size_t>(A.SurrogateEvalsSaved),
                 static_cast<std::size_t>(B.SurrogateEvalsSaved));
  CompareCounter("admitted", A.Admits, B.Admits);
  CompareCounter("shed", A.Sheds, B.Sheds);
  CompareCounter("quarantined", A.Quarantines, B.Quarantines);

  std::uint64_t NodesA = 0, NodesB = 0, PivotsA = 0, PivotsB = 0;
  for (const auto &[Family, F] : A.Families) {
    NodesA += F.Nodes;
    PivotsA += F.Pivots;
  }
  for (const auto &[Family, F] : B.Families) {
    NodesB += F.Nodes;
    PivotsB += F.Pivots;
  }
  CompareCounter("bnb_nodes", static_cast<std::size_t>(NodesA),
                 static_cast<std::size_t>(NodesB));
  CompareCounter("simplex_pivots", static_cast<std::size_t>(PivotsA),
                 static_cast<std::size_t>(PivotsB));

  for (const auto &[Stage, TotalB] : B.StageTotalUs) {
    auto It = A.StageTotalUs.find(Stage);
    if (It == A.StageTotalUs.end()) {
      std::printf("stage %-10s only in B (%.1f us)\n", Stage.c_str(),
                  TotalB);
      continue;
    }
    double TotalA = It->second;
    double DeltaUs = TotalB - TotalA;
    double DeltaPct = TotalA > 0 ? 100.0 * DeltaUs / TotalA : 0.0;
    bool Regressed = DeltaUs > MinRegressUs && DeltaPct > ThresholdPct;
    std::printf("stage %-10s %10.1f -> %10.1f us (%+.1f%%)%s\n",
                Stage.c_str(), TotalA, TotalB,
                TotalA > 0 ? DeltaPct : 0.0,
                Regressed ? "  REGRESSION" : "");
    if (Regressed)
      ++Regressions;
  }
  for (const auto &[Stage, TotalA] : A.StageTotalUs)
    if (!B.StageTotalUs.count(Stage))
      std::printf("stage %-10s only in A (%.1f us)\n", Stage.c_str(),
                  TotalA);
  return Regressions;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> JournalPaths;
  std::string ReportPath;
  std::string TracePath;
  std::string ExpositionPath;
  bool CheckSchema = false;
  bool Diff = false;
  double ThresholdPct = 10;
  double MinRegressUs = 1000;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--diff") == 0) {
      Diff = true;
    } else if (std::strcmp(Arg, "--check-schema") == 0) {
      CheckSchema = true;
    } else if (std::strncmp(Arg, "--report=", 9) == 0) {
      ReportPath = Arg + 9;
    } else if (std::strncmp(Arg, "--trace=", 8) == 0) {
      TracePath = Arg + 8;
    } else if (std::strncmp(Arg, "--exposition=", 13) == 0) {
      ExpositionPath = Arg + 13;
    } else if (std::strncmp(Arg, "--threshold-pct=", 16) == 0) {
      ThresholdPct = std::strtod(Arg + 16, nullptr);
    } else if (std::strncmp(Arg, "--min-regress-us=", 17) == 0) {
      MinRegressUs = std::strtod(Arg + 17, nullptr);
    } else if (Arg[0] == '-') {
      printUsage(Argv[0]);
      return 2;
    } else {
      JournalPaths.push_back(Arg);
    }
  }

  if (Diff) {
    if (JournalPaths.size() != 2) {
      std::fprintf(stderr,
                   "error: --diff needs exactly two journal files\n");
      printUsage(Argv[0]);
      return 2;
    }
    JournalStats A, B;
    if (!loadJournal(JournalPaths[0], A) ||
        !loadJournal(JournalPaths[1], B))
      return 1;
    std::printf("diff: %s -> %s (threshold %.1f%%, floor %.1f us)\n",
                JournalPaths[0].c_str(), JournalPaths[1].c_str(),
                ThresholdPct, MinRegressUs);
    std::size_t Regressions =
        diffStats(A, B, ThresholdPct, MinRegressUs);
    if (Regressions) {
      std::printf("%zu stage-time regression(s)\n", Regressions);
      return 1;
    }
    std::printf("no regressions\n");
    return 0;
  }

  if (JournalPaths.empty()) {
    printUsage(Argv[0]);
    return 2;
  }
  JournalStats Stats;
  for (const std::string &Path : JournalPaths)
    if (!loadJournal(Path, Stats))
      return 1;
  if (!ReportPath.empty())
    checkReport(ReportPath, Stats);
  if (!TracePath.empty())
    checkTrace(TracePath, Stats);
  if (!ExpositionPath.empty())
    checkExposition(ExpositionPath, Stats);

  for (const std::string &E : Stats.SchemaErrors)
    std::fprintf(stderr, "schema: %s\n", E.c_str());
  printSummary(Stats);
  if (CheckSchema && !Stats.SchemaErrors.empty()) {
    std::fprintf(stderr, "%zu schema violation(s)\n",
                 Stats.SchemaErrors.size());
    return 1;
  }
  return 0;
}
