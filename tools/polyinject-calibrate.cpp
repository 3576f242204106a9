//===- tools/polyinject-calibrate.cpp - Target calibration harness --------===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
//
// Fits a backend target's time-model constants (src/target/) to a
// measured (kernel, config, time) table and emits a versioned `.ptgt`
// file loadable with `--target=FILE` by every tool that takes a target.
//
// Two modes:
//
// 1. Table emission (a stand-in for real hardware measurements — on a
//    machine with the physical device, the same table format would be
//    filled with wall-clock times):
//
//      polyinject-calibrate --emit-table --target=cpu-simd
//          --ops-file=kernels/corpus.txt --tune-space=tiny
//          --out=measured.tbl
//
//    Every kernel is covered with the baseline configuration plus a
//    deterministic stride of tuning candidates; each row records the
//    kernel path, the candidate encoding and the target's simulated
//    time.
//
// 2. Fitting:
//
//      polyinject-calibrate --table=measured.tbl --kind=cpu-simd
//          --init-scale=1.7 --out=fit.ptgt --name=mybox
//          [--ref=cpu-simd --check-tol=0.05]
//
//    Rebuilds each row's mapped kernel (the same scheduling path the
//    tuner's evaluator uses), accumulates its transaction counters
//    once, and fits the time-model constants by deterministic cyclic
//    coordinate descent (target/Calibrate.h) — two runs over the same
//    table write byte-identical `.ptgt` files. --init-scale displaces
//    the fitted constants from their defaults so the fit demonstrably
//    searches; --ref/--check-tol compare the fitted constants against
//    a reference target and fail when any relative error exceeds the
//    tolerance (the calibration-recovery acceptance gate).
//
// Usage:
//   polyinject-calibrate --emit-table --target=NAME|FILE.ptgt
//                        [--ops-file=FILE] [--tune-space=default|tiny]
//                        [--candidates=N] [--out=FILE] [kernel.pinj ...]
//   polyinject-calibrate --table=FILE --kind=gpu-analytic|cpu-simd
//                        --out=FILE.ptgt [--name=NAME]
//                        [--init=NAME|FILE.ptgt] [--init-scale=X]
//                        [--fit=P1,P2,...] [--sweeps=N]
//                        [--ref=NAME|FILE.ptgt] [--check-tol=X]
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "target/Calibrate.h"
#include "target/Target.h"
#include "tune/Evaluator.h"
#include "tune/SearchSpace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace pinj;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --emit-table --target=NAME|FILE.ptgt [--ops-file=FILE] "
      "[--tune-space=default|tiny] [--candidates=N] [--out=FILE] "
      "[kernel.pinj ...]\n"
      "       %s --table=FILE --kind=gpu-analytic|cpu-simd --out=FILE.ptgt "
      "[--name=NAME] [--init=NAME|FILE.ptgt] [--init-scale=X] "
      "[--fit=P1,P2,...] [--sweeps=N] [--ref=NAME|FILE.ptgt] "
      "[--check-tol=X]\n",
      Argv0, Argv0);
}

Kernel loadKernelOrDie(const std::string &Path) {
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

std::vector<std::string> readOpsFile(const std::string &ListPath) {
  std::ifstream In(ListPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", ListPath.c_str());
    std::exit(1);
  }
  std::filesystem::path Base = std::filesystem::path(ListPath).parent_path();
  std::vector<std::string> Paths;
  std::string Line;
  while (std::getline(In, Line)) {
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos)
      continue;
    std::size_t Last = Line.find_last_not_of(" \t\r");
    std::string Entry = Line.substr(First, Last - First + 1);
    std::filesystem::path P(Entry);
    Paths.push_back(P.is_absolute() ? P.string() : (Base / P).string());
  }
  return Paths;
}

// Table file format (text, one file):
//
//   polyinject-caltable v1
//   space <search space name>
//   count <N>
//   row <kernel path> <encoding|baseline> <time %.17g>
//   ...
//   end
//
// Paths must contain no whitespace (they come from ops files, which
// share the constraint). "baseline" means the unmodified default
// options.

constexpr const char *TableHeader = "polyinject-caltable v1";

struct TableRow {
  std::string Path;
  std::string Encoding; // "baseline" or a candidate encoding.
  double TimeUs = 0;
};

struct Table {
  std::string SpaceName;
  std::vector<TableRow> Rows;
};

bool parseDoubleTok(const std::string &Tok, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End != Tok.c_str() && *End == '\0' && std::isfinite(Out);
}

std::string serializeTable(const Table &T) {
  std::ostringstream Out;
  char Buf[64];
  Out << TableHeader << '\n';
  Out << "space " << T.SpaceName << '\n';
  Out << "count " << T.Rows.size() << '\n';
  for (const TableRow &R : T.Rows) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", R.TimeUs);
    Out << "row " << R.Path << ' ' << R.Encoding << ' ' << Buf << '\n';
  }
  Out << "end\n";
  return Out.str();
}

bool parseTable(const std::string &Text, Table &Out, std::string &Err) {
  Out = Table();
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != TableHeader) {
    Err = "not a polyinject calibration table (bad header)";
    return false;
  }
  if (!std::getline(In, Line)) {
    Err = "truncated table (no space line)";
    return false;
  }
  {
    std::istringstream F(Line);
    std::string Tag, Extra;
    if (!(F >> Tag >> Out.SpaceName) || Tag != "space" || (F >> Extra)) {
      Err = "malformed space line";
      return false;
    }
  }
  std::size_t Count = 0;
  if (!std::getline(In, Line)) {
    Err = "truncated table (no count line)";
    return false;
  }
  {
    std::istringstream F(Line);
    std::string Tag;
    if (!(F >> Tag >> Count) || Tag != "count") {
      Err = "malformed count line";
      return false;
    }
  }
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream F(Line);
    std::string Tag, TimeTok, Extra;
    TableRow R;
    if (!(F >> Tag >> R.Path >> R.Encoding >> TimeTok) || Tag != "row" ||
        (F >> Extra) || !parseDoubleTok(TimeTok, R.TimeUs)) {
      Err = "malformed row line: " + Line;
      return false;
    }
    Out.Rows.push_back(std::move(R));
  }
  if (!SawEnd) {
    Err = "truncated table (no end marker)";
    return false;
  }
  if (Out.Rows.size() != Count) {
    Err = "row count mismatch (count line says " + std::to_string(Count) +
          ", file has " + std::to_string(Out.Rows.size()) + ")";
    return false;
  }
  return true;
}

std::vector<std::string> splitCommaList(const std::string &S) {
  std::vector<std::string> Out;
  std::size_t Pos = 0;
  while (Pos <= S.size()) {
    std::size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// The options one table row is scheduled under: defaults plus the
/// row's candidate. The backend target never enters (scheduling is
/// target-independent here), so emit and fit rebuild identical mapped
/// kernels from the same table.
bool rowOptions(const tune::SearchSpace &Space, const std::string &Encoding,
                PipelineOptions &O) {
  O = PipelineOptions();
  if (Encoding == "baseline")
    return true;
  tune::Candidate C;
  if (!Space.decode(Encoding, C))
    return false;
  Space.apply(C, O);
  return true;
}

int emitTable(const std::string &TargetSpec,
              const std::vector<std::string> &Paths,
              const std::string &SpaceName, std::size_t CandidatesPerKernel,
              const std::string &OutPath) {
  std::string Err;
  std::shared_ptr<target::TargetModel> T =
      target::resolveTarget(TargetSpec, &Err);
  if (!T) {
    std::fprintf(stderr, "error: --target: %s\n", Err.c_str());
    return 2;
  }
  tune::SearchSpace Space = tune::searchSpaceByName(SpaceName);
  if (Space.empty()) {
    std::fprintf(stderr,
                 "error: unknown --tune-space '%s' (known: default, tiny)\n",
                 SpaceName.c_str());
    return 2;
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: no kernels (give kernel files or "
                         "--ops-file)\n");
    return 2;
  }

  Table Tbl;
  Tbl.SpaceName = SpaceName;
  for (const std::string &P : Paths) {
    Kernel K = loadKernelOrDie(P);
    // Baseline plus an even deterministic stride over the space.
    std::vector<std::string> Encodings;
    Encodings.push_back("baseline");
    std::size_t Total = Space.size();
    std::size_t Want = std::min(CandidatesPerKernel, Total);
    std::size_t Stride = std::max<std::size_t>(1, Total / std::max<
                                                   std::size_t>(1, Want));
    for (std::size_t I = 0; I < Total && Encodings.size() < 1 + Want;
         I += Stride)
      Encodings.push_back(Space.encode(Space.candidateAt(I)));

    for (const std::string &E : Encodings) {
      PipelineOptions O;
      if (!rowOptions(Space, E, O))
        continue;
      MappedKernel M;
      if (!tune::buildInflMappedKernel(K, O, M))
        continue; // Unschedulable under this candidate: no row.
      KernelSim Sim = T->finishTime(T->accumulateCounters(M));
      TableRow R;
      R.Path = P;
      R.Encoding = E;
      R.TimeUs = Sim.TimeUs;
      Tbl.Rows.push_back(std::move(R));
    }
  }
  if (Tbl.Rows.empty()) {
    std::fprintf(stderr, "error: no table rows (every kernel/candidate "
                         "pair failed to schedule)\n");
    return 1;
  }

  std::string Text = serializeTable(Tbl);
  if (OutPath.empty()) {
    std::fputs(Text.c_str(), stdout);
  } else {
    std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
    Out << Text;
    Out.close();
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
      return 1;
    }
    std::printf("table    %s (%zu rows, %zu kernels, target %s)\n",
                OutPath.c_str(), Tbl.Rows.size(), Paths.size(),
                T->name().c_str());
  }
  return 0;
}

int fitFromTable(const std::string &TablePath, const std::string &Kind,
                 const std::string &OutPath, const std::string &Name,
                 const std::string &InitSpec, double InitScale,
                 const std::string &FitList, unsigned Sweeps,
                 const std::string &RefSpec, double CheckTol) {
  std::string Text;
  if (!readFile(TablePath, Text)) {
    std::fprintf(stderr, "error: cannot open table %s\n", TablePath.c_str());
    return 1;
  }
  Table Tbl;
  std::string Err;
  if (!parseTable(Text, Tbl, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", TablePath.c_str(), Err.c_str());
    return 1;
  }
  tune::SearchSpace Space = tune::searchSpaceByName(Tbl.SpaceName);
  if (Space.empty()) {
    std::fprintf(stderr, "error: table %s references unknown search "
                         "space '%s'\n",
                 TablePath.c_str(), Tbl.SpaceName.c_str());
    return 1;
  }

  // The target being fitted: --init (must be of --kind), else the
  // kind's defaults; --init-scale then displaces every fitted constant.
  std::shared_ptr<target::TargetModel> T;
  if (!InitSpec.empty()) {
    T = target::resolveTarget(InitSpec, &Err);
    if (!T) {
      std::fprintf(stderr, "error: --init: %s\n", Err.c_str());
      return 2;
    }
    T = T->clone();
  } else {
    T = target::makeTargetOfKind(Kind);
    if (!T) {
      std::fprintf(stderr, "error: unknown --kind '%s' (known: "
                           "gpu-analytic, cpu-simd)\n",
                   Kind.c_str());
      return 2;
    }
  }
  if (T->kind() != Kind) {
    std::fprintf(stderr, "error: --init target has kind %s, not --kind=%s\n",
                 T->kind().c_str(), Kind.c_str());
    return 2;
  }

  std::vector<std::string> FitNames = FitList.empty()
                                          ? target::defaultFitParams(Kind)
                                          : splitCommaList(FitList);
  if (InitScale != 1.0) {
    for (const std::string &N : FitNames) {
      for (const target::TargetParam &P : T->params()) {
        if (P.Name != N)
          continue;
        double V = P.Value * InitScale;
        auto [Lo, Hi] = T->paramRange(N);
        V = std::min(Hi, std::max(Lo, V));
        if (!T->setParam(N, V)) {
          std::fprintf(stderr, "error: cannot set parameter '%s'\n",
                       N.c_str());
          return 2;
        }
      }
    }
  }

  // Accumulate each row's counters once (they are independent of every
  // fitted constant — the transaction/time split at work).
  std::map<std::string, Kernel> Kernels;
  std::vector<target::CalibrationSample> Rows;
  for (const TableRow &R : Tbl.Rows) {
    auto It = Kernels.find(R.Path);
    if (It == Kernels.end())
      It = Kernels.emplace(R.Path, loadKernelOrDie(R.Path)).first;
    PipelineOptions O;
    if (!rowOptions(Space, R.Encoding, O)) {
      std::fprintf(stderr, "error: table row has undecodable encoding "
                           "'%s' in space '%s'\n",
                   R.Encoding.c_str(), Tbl.SpaceName.c_str());
      return 1;
    }
    MappedKernel M;
    if (!tune::buildInflMappedKernel(It->second, O, M)) {
      std::fprintf(stderr, "error: table row (%s, %s) no longer "
                           "schedules\n",
                   R.Path.c_str(), R.Encoding.c_str());
      return 1;
    }
    target::CalibrationSample S;
    S.Counters = T->accumulateCounters(M);
    S.MeasuredUs = R.TimeUs;
    Rows.push_back(std::move(S));
  }

  target::CalibrationConfig Cfg;
  if (Sweeps)
    Cfg.Sweeps = Sweeps;
  target::CalibrationResult Res =
      target::fitTargetParams(*T, Rows, FitNames, Cfg);
  T->rename(Name.empty() ? "calibrated" : Name);

  std::printf("fit      kind %s, %zu rows, %u sweeps, rms log error "
              "%.6g\n",
              Kind.c_str(), Rows.size(), Res.SweepsRun, Res.RmsLogError);
  for (const target::TargetParam &P : Res.Fitted)
    std::printf("  %-28s %.17g\n", P.Name.c_str(), P.Value);

  // Recovery gate: every fitted constant within tolerance of the
  // reference target's value. Runs before the save so a failed check
  // never leaves a target file behind.
  if (!RefSpec.empty()) {
    std::shared_ptr<target::TargetModel> Ref =
        target::resolveTarget(RefSpec, &Err);
    if (!Ref) {
      std::fprintf(stderr, "error: --ref: %s\n", Err.c_str());
      return 2;
    }
    if (Ref->kind() != Kind) {
      std::fprintf(stderr, "error: --ref target has kind %s, not "
                           "--kind=%s\n",
                   Ref->kind().c_str(), Kind.c_str());
      return 2;
    }
    bool Ok = true;
    for (const target::TargetParam &P : Res.Fitted) {
      double RefV = 0;
      for (const target::TargetParam &Q : Ref->params())
        if (Q.Name == P.Name)
          RefV = Q.Value;
      double Rel = RefV != 0 ? std::abs(P.Value - RefV) / std::abs(RefV)
                             : std::abs(P.Value);
      bool Pass = Rel <= CheckTol;
      Ok &= Pass;
      std::printf("  check  %-22s fitted %-12.6g ref %-12.6g rel err "
                  "%.4f %s\n",
                  P.Name.c_str(), P.Value, RefV, Rel,
                  Pass ? "ok" : "FAIL");
    }
    if (!Ok) {
      std::fprintf(stderr, "error: calibration did not recover the "
                           "reference constants within %.2f%%\n",
                   CheckTol * 100);
      return 1;
    }
    std::printf("check    all fitted constants within %.2f%% of %s\n",
                CheckTol * 100, Ref->name().c_str());
  }

  if (!OutPath.empty()) {
    if (!target::saveTargetFile(*T, OutPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("target   %s\n", OutPath.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool EmitTable = false;
  std::string TargetSpec, OpsFilePath, SpaceName = "tiny", OutPath;
  std::string TablePath, Kind, Name, InitSpec, FitList, RefSpec;
  std::size_t CandidatesPerKernel = 8;
  double InitScale = 1.0, CheckTol = 0.05;
  unsigned Sweeps = 0;
  std::vector<std::string> Paths;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--emit-table") == 0) {
      EmitTable = true;
    } else if (std::strncmp(Arg, "--target=", 9) == 0) {
      TargetSpec = Arg + 9;
    } else if (std::strncmp(Arg, "--ops-file=", 11) == 0) {
      OpsFilePath = Arg + 11;
    } else if (std::strncmp(Arg, "--tune-space=", 13) == 0) {
      SpaceName = Arg + 13;
    } else if (std::strncmp(Arg, "--candidates=", 13) == 0) {
      CandidatesPerKernel = std::strtoull(Arg + 13, nullptr, 10);
    } else if (std::strncmp(Arg, "--out=", 6) == 0) {
      OutPath = Arg + 6;
    } else if (std::strncmp(Arg, "--table=", 8) == 0) {
      TablePath = Arg + 8;
    } else if (std::strncmp(Arg, "--kind=", 7) == 0) {
      Kind = Arg + 7;
    } else if (std::strncmp(Arg, "--name=", 7) == 0) {
      Name = Arg + 7;
    } else if (std::strncmp(Arg, "--init=", 7) == 0) {
      InitSpec = Arg + 7;
    } else if (std::strncmp(Arg, "--init-scale=", 13) == 0) {
      InitScale = std::strtod(Arg + 13, nullptr);
      if (!(InitScale > 0)) {
        std::fprintf(stderr, "error: --init-scale needs a positive "
                             "factor\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--fit=", 6) == 0) {
      FitList = Arg + 6;
    } else if (std::strncmp(Arg, "--sweeps=", 9) == 0) {
      Sweeps = static_cast<unsigned>(std::strtoul(Arg + 9, nullptr, 10));
    } else if (std::strncmp(Arg, "--ref=", 6) == 0) {
      RefSpec = Arg + 6;
    } else if (std::strncmp(Arg, "--check-tol=", 12) == 0) {
      CheckTol = std::strtod(Arg + 12, nullptr);
      if (!(CheckTol > 0)) {
        std::fprintf(stderr, "error: --check-tol needs a positive "
                             "tolerance\n");
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

  if (EmitTable) {
    if (TargetSpec.empty()) {
      std::fprintf(stderr, "error: --emit-table needs --target "
                           "(available: %s)\n",
                   target::availableTargetsHint().c_str());
      return 2;
    }
    return emitTable(TargetSpec, Paths, SpaceName, CandidatesPerKernel,
                     OutPath);
  }
  if (TablePath.empty() || Kind.empty()) {
    printUsage(Argv[0]);
    return 2;
  }
  return fitFromTable(TablePath, Kind, OutPath, Name, InitSpec, InitScale,
                      FitList, Sweeps, RefSpec, CheckTol);
}
