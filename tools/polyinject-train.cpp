//===- tools/polyinject-train.cpp - Offline cost-model trainer ------------===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
//
// Trains the gradient-boosted-stumps cost model (src/model/) the
// `--autotune=surrogate` strategy consumes.
//
// Sample building (kernel files given): every kernel is covered with a
// deterministic stride of tuning candidates, each scored by the same
// evaluator the search uses; a --tuning-db contributes its stored
// winner per kernel. Training is deterministic, so two runs over the
// same inputs produce byte-identical models and byte-identical stdout.
//
//   polyinject-train --out-model=m.pgbm --tuning-db=tune.db
//       --ops-file=kernels/corpus.txt
//
// Usage:
//   polyinject-train [--out-model=FILE] [--tuning-db=FILE]
//                    [--ops-file=FILE] [--dataset=FILE]
//                    [--out-dataset=FILE] [--eval-model=FILE]
//                    [--folds=N] [--rounds=N] [--shrinkage=X] [--seed=N]
//                    [--candidates=N] [--jobs=N]
//                    [--tune-space=default|tiny]
//                    [--target=NAME|FILE.ptgt] [kernel.pinj ...]
//
//     --out-model=FILE     where the trained model lands (rename-atomic)
//     --tuning-db=FILE     tuning database whose winners seed the samples
//     --dataset=FILE       train from a saved dataset instead of
//                          building one from kernels
//     --out-dataset=FILE   persist the built (or loaded) dataset
//     --eval-model=FILE    no training: load the model, print one
//                          prediction per dataset sample ("%.17g", one
//                          per line) — the train-roundtrip test's probe
//     --folds=N            held-out cross-validation folds for the
//                          MAE/rank-correlation report (default 5;
//                          0/1 skips the report)
//     --rounds/--shrinkage/--seed   GbStumps training config
//     --candidates=N       candidates evaluated per kernel (default 48)
//     --jobs=N             evaluator workers (sample values identical
//                          for any count)
//     --tune-space=NAME    space to sample ("default" or "tiny")
//     --target=SPEC        backend target samples are scored under: a
//                          built-in name (v100, a100, p100, cpu-simd)
//                          or a calibrated .ptgt file. Datasets are
//                          stamped with the target identity; mixing a
//                          loaded dataset with a different --target is
//                          an error (one surrogate approximates one
//                          target's cost function).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "model/Dataset.h"
#include "model/GbStumps.h"
#include "target/GpuAnalyticTarget.h"
#include "target/Target.h"
#include "tune/SearchSpace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace pinj;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--out-model=FILE] [--tuning-db=FILE] [--ops-file=FILE] "
      "[--dataset=FILE] [--out-dataset=FILE] [--eval-model=FILE] "
      "[--folds=N] [--rounds=N] [--shrinkage=X] [--seed=N] "
      "[--candidates=N] [--jobs=N] [--tune-space=default|tiny] "
      "[--target=NAME|FILE.ptgt] [kernel.pinj ...]\n",
      Argv0);
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

/// Average ranks (1-based, ties averaged) of \p V.
std::vector<double> ranks(const std::vector<double> &V) {
  std::vector<std::size_t> Order(V.size());
  std::iota(Order.begin(), Order.end(), std::size_t(0));
  std::stable_sort(Order.begin(), Order.end(),
                   [&](std::size_t A, std::size_t B) { return V[A] < V[B]; });
  std::vector<double> R(V.size(), 0);
  std::size_t I = 0;
  while (I < Order.size()) {
    std::size_t J = I;
    while (J + 1 < Order.size() && V[Order[J + 1]] == V[Order[I]])
      ++J;
    double Avg = (double(I) + double(J)) / 2 + 1;
    for (std::size_t T = I; T <= J; ++T)
      R[Order[T]] = Avg;
    I = J + 1;
  }
  return R;
}

/// Spearman rank correlation; 0 when either side is constant.
double spearman(const std::vector<double> &A, const std::vector<double> &B) {
  std::vector<double> Ra = ranks(A), Rb = ranks(B);
  double N = double(Ra.size());
  double Ma = std::accumulate(Ra.begin(), Ra.end(), 0.0) / N;
  double Mb = std::accumulate(Rb.begin(), Rb.end(), 0.0) / N;
  double Cov = 0, Va = 0, Vb = 0;
  for (std::size_t I = 0; I < Ra.size(); ++I) {
    Cov += (Ra[I] - Ma) * (Rb[I] - Mb);
    Va += (Ra[I] - Ma) * (Ra[I] - Ma);
    Vb += (Rb[I] - Mb) * (Rb[I] - Mb);
  }
  if (Va == 0 || Vb == 0)
    return 0;
  return Cov / std::sqrt(Va * Vb);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutModelPath, TuningDbPath, OpsFilePath, DatasetPath;
  std::string OutDatasetPath, EvalModelPath, TargetSpec;
  std::string SpaceName = "default";
  unsigned Folds = 5;
  model::TrainConfig Train;
  model::DatasetBuildConfig Build;
  std::vector<std::string> Paths;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--out-model=", 12) == 0) {
      OutModelPath = Arg + 12;
    } else if (std::strncmp(Arg, "--tuning-db=", 12) == 0) {
      TuningDbPath = Arg + 12;
    } else if (std::strncmp(Arg, "--ops-file=", 11) == 0) {
      OpsFilePath = Arg + 11;
    } else if (std::strncmp(Arg, "--dataset=", 10) == 0) {
      DatasetPath = Arg + 10;
    } else if (std::strncmp(Arg, "--out-dataset=", 14) == 0) {
      OutDatasetPath = Arg + 14;
    } else if (std::strncmp(Arg, "--eval-model=", 13) == 0) {
      EvalModelPath = Arg + 13;
    } else if (std::strncmp(Arg, "--folds=", 8) == 0) {
      Folds = static_cast<unsigned>(std::strtoul(Arg + 8, nullptr, 10));
    } else if (std::strncmp(Arg, "--rounds=", 9) == 0) {
      Train.Rounds = static_cast<unsigned>(std::strtoul(Arg + 9, nullptr, 10));
    } else if (std::strncmp(Arg, "--shrinkage=", 12) == 0) {
      Train.Shrinkage = std::strtod(Arg + 12, nullptr);
      if (!(Train.Shrinkage > 0)) {
        std::fprintf(stderr, "error: --shrinkage needs a positive value\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--seed=", 7) == 0) {
      Train.Seed = std::strtoull(Arg + 7, nullptr, 10);
    } else if (std::strncmp(Arg, "--candidates=", 13) == 0) {
      Build.CandidatesPerKernel = std::strtoull(Arg + 13, nullptr, 10);
      if (Build.CandidatesPerKernel == 0) {
        std::fprintf(stderr, "error: --candidates needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--jobs=", 7) == 0) {
      Build.Jobs = static_cast<unsigned>(std::strtoul(Arg + 7, nullptr, 10));
      if (Build.Jobs == 0) {
        std::fprintf(stderr, "error: --jobs needs a positive count\n");
        return 2;
      }
    } else if (std::strncmp(Arg, "--tune-space=", 13) == 0) {
      SpaceName = Arg + 13;
    } else if (std::strncmp(Arg, "--target=", 9) == 0) {
      TargetSpec = Arg + 9;
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

  tune::SearchSpace Space = tune::searchSpaceByName(SpaceName);
  if (Space.empty()) {
    std::fprintf(stderr,
                 "error: unknown --tune-space '%s' (known: default, tiny)\n",
                 SpaceName.c_str());
    return 2;
  }

  // The backend target samples are scored under (see src/target/).
  PipelineOptions Base;
  if (!TargetSpec.empty()) {
    std::string Err;
    std::shared_ptr<target::TargetModel> T =
        target::resolveTarget(TargetSpec, &Err);
    if (!T) {
      std::fprintf(stderr, "error: --target: %s\n", Err.c_str());
      return 2;
    }
    if (const auto *G =
            dynamic_cast<const target::GpuAnalyticTarget *>(T.get()))
      Base.Gpu = G->model();
    Base.Target = std::move(T);
  }

  // Assemble the dataset: load, build, or both (loaded samples must
  // come from the same space shape — and the same backend target —
  // the kernels are sampled under).
  model::Dataset Data;
  if (!DatasetPath.empty()) {
    std::string Err;
    if (!model::loadDataset(DatasetPath, Data, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (Data.SpaceSignature != Space.signature() && !Paths.empty()) {
      std::fprintf(stderr,
                   "error: dataset %s was sampled under another search "
                   "space than --tune-space=%s\n",
                   DatasetPath.c_str(), SpaceName.c_str());
      return 1;
    }
    if (Data.TargetId != target::targetIdForOptions(Base)) {
      std::fprintf(stderr,
                   "error: dataset %s was scored under target %s, not "
                   "the requested %s — its times describe a different "
                   "cost function\n",
                   DatasetPath.c_str(), Data.TargetId.c_str(),
                   target::targetIdForOptions(Base).c_str());
      return 1;
    }
  }
  if (!Paths.empty()) {
    std::unique_ptr<tune::TuningDb> Db;
    if (!TuningDbPath.empty())
      Db = std::make_unique<tune::TuningDb>(TuningDbPath);
    for (const std::string &P : Paths) {
      Kernel K = loadKernelOrDie(P);
      std::size_t N =
          model::appendSamples(Data, K, Base, Space, Db.get(), Build);
      std::printf("sampled %-28s %zu candidates\n", K.Name.c_str(), N);
    }
  }
  if (Data.Samples.empty()) {
    std::fprintf(stderr, "error: no training samples (give kernel files, "
                         "--ops-file or --dataset)\n");
    return 2;
  }
  if (!OutDatasetPath.empty()) {
    std::string Err;
    if (!model::saveDataset(Data, OutDatasetPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("dataset  %s (%zu samples)\n", OutDatasetPath.c_str(),
                Data.Samples.size());
  }

  std::vector<model::FeatureVector> X;
  std::vector<double> Y;
  X.reserve(Data.Samples.size());
  Y.reserve(Data.Samples.size());
  for (const model::Sample &S : Data.Samples) {
    X.push_back(S.X);
    Y.push_back(model::regressionTarget(S.TimeUs));
  }

  // Probe mode: print one prediction per sample and stop. The
  // train-roundtrip test diffs this output between a fresh and a
  // reloaded model.
  if (!EvalModelPath.empty()) {
    model::GbStumpsModel M;
    std::string Err;
    if (!model::loadModel(EvalModelPath, M, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    for (const model::FeatureVector &V : X)
      std::printf("%.17g\n", M.predict(V));
    return 0;
  }

  if (OutModelPath.empty()) {
    std::fprintf(stderr, "error: --out-model is required (or --eval-model "
                         "for prediction probes)\n");
    return 2;
  }

  // Held-out report: deterministic round-robin folds, so the numbers
  // are comparable across runs and machines.
  if (Folds >= 2 && Data.Samples.size() >= Folds) {
    double MaeSum = 0, RhoSum = 0;
    for (unsigned F = 0; F < Folds; ++F) {
      std::vector<model::FeatureVector> TrainX;
      std::vector<double> TrainY, HeldY, HeldPred;
      std::vector<model::FeatureVector> HeldX;
      for (std::size_t I = 0; I < X.size(); ++I) {
        if (I % Folds == F) {
          HeldX.push_back(X[I]);
          HeldY.push_back(Y[I]);
        } else {
          TrainX.push_back(X[I]);
          TrainY.push_back(Y[I]);
        }
      }
      model::GbStumpsModel M = model::trainGbStumps(TrainX, TrainY, Train);
      double Mae = 0;
      for (std::size_t I = 0; I < HeldX.size(); ++I) {
        HeldPred.push_back(M.predict(HeldX[I]));
        Mae += std::abs(HeldPred.back() - HeldY[I]);
      }
      Mae /= double(HeldX.size());
      double Rho = spearman(HeldPred, HeldY);
      MaeSum += Mae;
      RhoSum += Rho;
      std::printf("fold %u/%u: held-out MAE %.4f (log2 us), rank corr "
                  "%.4f (%zu samples)\n",
                  F + 1, Folds, Mae, Rho, HeldX.size());
    }
    std::printf("cv mean: held-out MAE %.4f (log2 us), rank corr %.4f\n",
                MaeSum / Folds, RhoSum / Folds);
  }

  model::GbStumpsModel Final = model::trainGbStumps(X, Y, Train);
  std::string Err;
  if (!model::saveModel(Final, OutModelPath, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  double TrainMae = 0;
  for (std::size_t I = 0; I < X.size(); ++I)
    TrainMae += std::abs(Final.predict(X[I]) - Y[I]);
  TrainMae /= double(X.size());
  std::printf("model    %s (%zu stumps, train MAE %.4f log2 us, "
              "%zu samples, schema %s)\n",
              OutModelPath.c_str(), Final.Stumps.size(), TrainMae,
              X.size(), Final.SchemaHash.c_str());
  return 0;
}
