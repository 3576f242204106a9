//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload cold|validate|tune --seed N --seconds S --trace 0|1
//
// Run from the root of a checkout: BENCHMARK.json there lists the metrics
// each mode reports. Prints a human-readable table of every metric (with
// units and sample counts) and, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace perfbench;
using namespace pinj;

namespace {

/// A metric as BENCHMARK.json lists it.
struct Listed {
  std::string Name, Unit;
};

/// The metrics BENCHMARK.json lists for this mode: its end_to_end list,
/// or its per_layer list when \p Trace.
std::vector<Listed> listedMetrics(bool Trace) {
  std::ifstream In("BENCHMARK.json");
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Error = "cannot open it";
  std::optional<obs::json::Value> V;
  if (In)
    V = obs::json::parse(Text.str(), Error);
  const obs::json::Value *List =
      V ? V->find(Trace ? "per_layer" : "end_to_end") : nullptr;
  std::vector<Listed> Out;
  if (List && List->isArray())
    for (const obs::json::Value &M : List->Items)
      Out.push_back({M.at("name").Str, M.at("unit").Str});
  if (Out.empty()) {
    std::fprintf(stderr,
                 "perfbench: cannot read the metric list of BENCHMARK.json: "
                 "%s\n",
                 Error.c_str());
    std::exit(1);
  }
  return Out;
}

/// Whether \p Workload leaves per-layer metric \p Name out by design: the
/// layers, by name prefix, that it does not exercise (README.md,
/// per-layer table). These read 0; any other metric a workload leaves
/// out is an error.
bool notExercised(const std::string &Workload, const std::string &Name) {
  static const std::map<std::string, std::vector<std::string>> Idle = {
      {"cold", {"exec.", "tune."}},
      {"validate", {"tune.", "service.", "ir.", "loadgen."}},
      {"tune", {"exec.", "service.", "ir.", "loadgen."}}};
  for (const std::string &Prefix : Idle.at(Workload))
    if (Name.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold|validate|tune --seed N --seconds S --trace 0|1\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool Have[4] = {false, false, false, false};
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage("missing value");
    std::string Key = Argv[I], Val = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Val;
      Have[0] = Val == "cold" || Val == "validate" || Val == "tune";
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
      Have[1] = *End == '\0' && !Val.empty();
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      Have[2] = *End == '\0' && A.Seconds > 0 && A.Seconds <= 120;
    } else if (Key == "--trace") {
      A.Trace = Val == "1";
      Have[3] = Val == "0" || Val == "1";
    } else {
      usage(("unknown argument " + Key).c_str());
    }
  }
  for (bool H : Have)
    if (!H)
      usage("--workload cold|validate|tune, --seed, --seconds and --trace "
            "are required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::vector<Listed> Wanted = listedMetrics(A.Trace);
  Result R = runBatch(A);

  // Every listed metric must be reported, in BENCHMARK.json's unit; the
  // layers a workload does not exercise are added as 0.
  std::map<std::string, std::size_t> Index;
  for (std::size_t I = 0; I != R.Metrics.size(); ++I)
    Index[R.Metrics[I].Name] = I;
  for (const Listed &L : Wanted) {
    auto It = Index.find(L.Name);
    if (It == Index.end() && A.Trace && notExercised(A.Workload, L.Name)) {
      Index[L.Name] = R.Metrics.size();
      R.add(L.Name, 0, L.Unit);
    } else if (It == Index.end()) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n",
                   L.Name.c_str());
      return 1;
    } else if (R.Metrics[It->second].Unit != L.Unit) {
      std::fprintf(stderr,
                   "perfbench: %s reported in %s, BENCHMARK.json says %s\n",
                   L.Name.c_str(), R.Metrics[It->second].Unit.c_str(),
                   L.Unit.c_str());
      return 1;
    }
  }

  std::printf("\n%-28s %16s %-6s %s\n", "metric", "value", "unit",
              "samples");
  for (const Metric &M : R.Metrics) {
    std::string Samples =
        M.Count ? std::to_string(M.Count) : std::string("-");
    if (!M.Note.empty())
      Samples += " (" + M.Note + ")";
    std::printf("%-28s %16.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), Samples.c_str());
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));

  // The result line: only the metrics of this mode, in list order.
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (std::size_t I = 0; I != Wanted.size(); ++I) {
    const Metric &M = R.Metrics[Index.at(Wanted[I].Name)];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Json += I ? ", " : "";
    Json += "\"" + M.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
            M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
