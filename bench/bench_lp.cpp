//===- bench/bench_lp.cpp - Exact LP core speedup gate --------------------===//
//
// Times the rewritten LP core (flat integer-row tableau, warm-started
// lexmin levels) against the retained reference solver (lp/Reference.h:
// a rational tableau, per-node problem copies, cold solves at every
// level) on the lexicographic ILPs the
// scheduler actually emits, checks the results are identical, and gates
// on the geometric-mean wall-clock speedup.
//
//   bench_lp [--json=FILE] [--min-speedup=X] [--reps=N]
//
// The JSON is the benchmark trajectory consumed by CI:
//   {"cases": [{"name", "reference_ms", "fast_ms", "speedup"}, ...],
//    "geomean_speedup": X, "gate": Y, "pass": true|false}
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "lp/Reference.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace pinj;

namespace {

double toMs(std::chrono::steady_clock::duration D) {
  return std::chrono::duration<double, std::milli>(D).count();
}

template <typename Fn> double timeBestOf(unsigned Reps, Fn &&Run) {
  double Best = 0;
  for (unsigned R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    Run();
    double Ms = toMs(std::chrono::steady_clock::now() - Start);
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

bool sameResult(const IlpResult &A, const IlpResult &B) {
  if (A.Status != B.Status)
    return false;
  if (A.Status != IlpResult::Optimal)
    return true;
  if (!(A.Value == B.Value) || A.Point.size() != B.Point.size())
    return false;
  for (unsigned V = 0, E = A.Point.size(); V != E; ++V)
    if (!(A.Point[V] == B.Point[V]))
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  double MinSpeedup = 2.0;
  unsigned Reps = 3;
  for (int A = 1; A != argc; ++A) {
    if (!std::strncmp(argv[A], "--json=", 7))
      JsonPath = argv[A] + 7;
    else if (!std::strncmp(argv[A], "--min-speedup=", 14))
      MinSpeedup = std::atof(argv[A] + 14);
    else if (!std::strncmp(argv[A], "--reps=", 7))
      Reps = std::atoi(argv[A] + 7);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json=FILE] [--min-speedup=X] [--reps=N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<LexCase> Cases = schedulerLexCases();

  struct Measured {
    std::string Name;
    double ReferenceMs = 0, FastMs = 0;
  };
  std::vector<Measured> Rows;
  std::vector<double> Speedups;
  bool Mismatch = false;

  for (const LexCase &C : Cases) {
    IlpResult Ref = referenceSolveLexMin(C.Problem, C.Levels);
    IlpResult Fast = solveLexMin(C.Problem, C.Levels);
    if (!sameResult(Ref, Fast)) {
      std::fprintf(stderr, "FAIL %s: solvers disagree (status %d vs %d)\n",
                   C.Name.c_str(), static_cast<int>(Ref.Status),
                   static_cast<int>(Fast.Status));
      Mismatch = true;
      continue;
    }
    Measured M;
    M.Name = C.Name;
    M.ReferenceMs = timeBestOf(
        Reps, [&] { referenceSolveLexMin(C.Problem, C.Levels); });
    M.FastMs = timeBestOf(Reps, [&] { solveLexMin(C.Problem, C.Levels); });
    Rows.push_back(M);
    double Speedup = M.FastMs > 0 ? M.ReferenceMs / M.FastMs : 1.0;
    Speedups.push_back(Speedup);
    std::printf("%-16s reference %8.3f ms  fast %8.3f ms  speedup %6.2fx\n",
                M.Name.c_str(), M.ReferenceMs, M.FastMs, Speedup);
  }

  double Geomean = geomean(Speedups);
  bool Pass = !Mismatch && !Rows.empty() && Geomean >= MinSpeedup;
  std::printf("geomean speedup: %.2fx (gate %.2fx) -> %s\n", Geomean,
              MinSpeedup, Pass ? "PASS" : "FAIL");

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 2;
    }
    std::fprintf(F, "{\n  \"cases\": [\n");
    for (unsigned R = 0, E = Rows.size(); R != E; ++R)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"reference_ms\": %.4f, "
                   "\"fast_ms\": %.4f, \"speedup\": %.3f}%s\n",
                   Rows[R].Name.c_str(), Rows[R].ReferenceMs, Rows[R].FastMs,
                   Rows[R].ReferenceMs / (Rows[R].FastMs > 0 ? Rows[R].FastMs
                                                             : 1.0),
                   R + 1 == E ? "" : ",");
    std::fprintf(F,
                 "  ],\n  \"geomean_speedup\": %.3f,\n  \"gate\": %.2f,\n"
                 "  \"pass\": %s\n}\n",
                 Geomean, MinSpeedup, Pass ? "true" : "false");
    std::fclose(F);
  }
  return Pass ? 0 : 1;
}
