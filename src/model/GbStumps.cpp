//===- model/GbStumps.cpp - Gradient-boosted-stumps regressor -------------===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "model/GbStumps.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

using namespace pinj;
using namespace pinj::model;

namespace {

// On-disk format (text, one file):
//
//   polyinject-model v1
//   schema <32hex feature-schema hash>
//   config rounds <N> shrinkage <%.17g> seed <u64> subsample <num>/<den>
//   base <%.17g>
//   stump <feature> <threshold %.17g> <left %.17g> <right %.17g>
//   ...
//   end
//
// Parsing is strict: any deviation rejects the whole file (a model with
// silently dropped rounds would still "work" while mispredicting).

constexpr const char *FileHeader = "polyinject-model v1";

obs::Counter &rejectCounter() {
  static obs::Counter &C = obs::metrics().counter("model.rejects");
  return C;
}

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

std::uint64_t xorshift64(std::uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

/// Strict double parse: the whole token, finite result.
bool parseDouble(const std::string &Tok, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End != Tok.c_str() && *End == '\0' && std::isfinite(Out);
}

struct SplitChoice {
  bool Found = false;
  unsigned Feature = 0;
  double Threshold = 0;
  double LeftMean = 0;
  double RightMean = 0;
  double Gain = 0; ///< Residual SSE removed by the split.
};

/// The exhaustive best stump for the residuals of the \p Rows subset:
/// per feature, sort the rows once, then sweep prefix sums over the
/// midpoint thresholds. All comparisons are on doubles computed the
/// same way on every platform we target (IEEE-754, no FMA contraction
/// inside the sums), so the argmax — and therefore the model — is
/// reproducible.
SplitChoice bestSplit(const std::vector<FeatureVector> &X,
                      const std::vector<double> &Residual,
                      const std::vector<unsigned> &Rows) {
  SplitChoice Best;
  if (Rows.size() < 2)
    return Best;
  std::size_t NumFeat = X[Rows[0]].size();

  double TotalSum = 0;
  for (unsigned R : Rows)
    TotalSum += Residual[R];
  double N = static_cast<double>(Rows.size());

  std::vector<unsigned> Order;
  for (std::size_t F = 0; F < NumFeat; ++F) {
    Order = Rows;
    std::stable_sort(Order.begin(), Order.end(),
                     [&](unsigned A, unsigned B) { return X[A][F] < X[B][F]; });
    if (X[Order.front()][F] == X[Order.back()][F])
      continue; // Constant feature: nothing to split on.

    double LeftSum = 0;
    double LeftN = 0;
    for (std::size_t I = 0; I + 1 < Order.size(); ++I) {
      LeftSum += Residual[Order[I]];
      LeftN += 1;
      double Lo = X[Order[I]][F], Hi = X[Order[I + 1]][F];
      if (Lo == Hi)
        continue; // Threshold must separate distinct values.
      double RightSum = TotalSum - LeftSum;
      double RightN = N - LeftN;
      // SSE reduction of splitting at this boundary (constant terms of
      // the residual SSE cancel): sumL^2/nL + sumR^2/nR - sum^2/n.
      double Gain = LeftSum * LeftSum / LeftN +
                    RightSum * RightSum / RightN - TotalSum * TotalSum / N;
      if (Gain > Best.Gain) {
        Best.Found = true;
        Best.Feature = static_cast<unsigned>(F);
        Best.Threshold = Lo + (Hi - Lo) / 2;
        Best.LeftMean = LeftSum / LeftN;
        Best.RightMean = RightSum / RightN;
        Best.Gain = Gain;
      }
      // Ties keep the earlier (lower feature index, lower threshold)
      // choice because the comparison above is strict.
    }
  }
  return Best;
}

} // namespace

double GbStumpsModel::predict(const FeatureVector &X) const {
  assert(X.size() == featureCount() && "feature vector from another schema");
  static obs::Counter &Predictions =
      obs::metrics().counter("model.predictions");
  Predictions.inc();
  double Y = Base;
  for (const Stump &S : Stumps)
    Y += X[S.Feature] <= S.Threshold ? S.Left : S.Right;
  return Y;
}

GbStumpsModel pinj::model::trainGbStumps(const std::vector<FeatureVector> &X,
                                         const std::vector<double> &Y,
                                         const TrainConfig &Config) {
  assert(X.size() == Y.size() && "one target per sample");
  GbStumpsModel M;
  M.SchemaHash = featureSchemaHash();
  M.Config = Config;
  if (X.empty())
    return M;

  double Sum = std::accumulate(Y.begin(), Y.end(), 0.0);
  M.Base = Sum / static_cast<double>(Y.size());

  std::vector<double> Residual(Y.size());
  for (std::size_t I = 0; I < Y.size(); ++I)
    Residual[I] = Y[I] - M.Base;

  bool Subsample =
      Config.SubsampleDen > 0 && Config.SubsampleNum < Config.SubsampleDen;
  std::uint64_t Rng = Config.Seed ? Config.Seed : 1;

  std::vector<unsigned> AllRows(X.size());
  std::iota(AllRows.begin(), AllRows.end(), 0u);
  std::vector<unsigned> Rows;

  M.Stumps.reserve(Config.Rounds);
  for (unsigned Round = 0; Round < Config.Rounds; ++Round) {
    const std::vector<unsigned> *Fit = &AllRows;
    if (Subsample) {
      Rows.clear();
      for (unsigned R : AllRows)
        if (xorshift64(Rng) % Config.SubsampleDen < Config.SubsampleNum)
          Rows.push_back(R);
      if (Rows.size() < 2)
        continue; // Degenerate draw: skip the round, keep the RNG state.
      Fit = &Rows;
    }
    SplitChoice S = bestSplit(X, Residual, *Fit);
    if (!S.Found)
      break; // Residuals constant along every feature: converged.
    Stump St;
    St.Feature = S.Feature;
    St.Threshold = S.Threshold;
    St.Left = Config.Shrinkage * S.LeftMean;
    St.Right = Config.Shrinkage * S.RightMean;
    M.Stumps.push_back(St);
    for (std::size_t I = 0; I < X.size(); ++I)
      Residual[I] -= X[I][St.Feature] <= St.Threshold ? St.Left : St.Right;
  }
  return M;
}

std::string pinj::model::serializeModel(const GbStumpsModel &M) {
  std::ostringstream Out;
  char Buf[64];
  auto G = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return std::string(Buf);
  };
  Out << FileHeader << '\n';
  Out << "schema " << M.SchemaHash << '\n';
  Out << "config rounds " << M.Config.Rounds << " shrinkage "
      << G(M.Config.Shrinkage) << " seed " << M.Config.Seed << " subsample "
      << M.Config.SubsampleNum << '/' << M.Config.SubsampleDen << '\n';
  Out << "base " << G(M.Base) << '\n';
  for (const Stump &S : M.Stumps)
    Out << "stump " << S.Feature << ' ' << G(S.Threshold) << ' ' << G(S.Left)
        << ' ' << G(S.Right) << '\n';
  Out << "end\n";
  return Out.str();
}

bool pinj::model::parseModel(const std::string &Text, GbStumpsModel &Out,
                             std::string *Err) {
  Out = GbStumpsModel();
  std::istringstream In(Text);
  std::string Line;

  if (!std::getline(In, Line) || Line != FileHeader) {
    rejectCounter().inc();
    return fail(Err, "not a polyinject model file (bad header)");
  }

  if (!std::getline(In, Line)) {
    rejectCounter().inc();
    return fail(Err, "truncated model file (no schema line)");
  }
  {
    std::istringstream F(Line);
    std::string Tag, Hash;
    if (!(F >> Tag >> Hash) || Tag != "schema" || Hash.size() != 32) {
      rejectCounter().inc();
      return fail(Err, "malformed schema line");
    }
    if (Hash != featureSchemaHash()) {
      rejectCounter().inc();
      return fail(Err, "stale model: feature schema hash mismatch (model " +
                           Hash + ", current " + featureSchemaHash() + ")");
    }
    Out.SchemaHash = Hash;
  }

  if (!std::getline(In, Line)) {
    rejectCounter().inc();
    return fail(Err, "truncated model file (no config line)");
  }
  {
    std::istringstream F(Line);
    std::string Tag, RoundsTag, ShrTag, ShrTok, SeedTag, SubTag, SubTok;
    if (!(F >> Tag >> RoundsTag >> Out.Config.Rounds >> ShrTag >> ShrTok >>
          SeedTag >> Out.Config.Seed >> SubTag >> SubTok) ||
        Tag != "config" || RoundsTag != "rounds" || ShrTag != "shrinkage" ||
        SeedTag != "seed" || SubTag != "subsample" ||
        !parseDouble(ShrTok, Out.Config.Shrinkage)) {
      rejectCounter().inc();
      return fail(Err, "malformed config line");
    }
    std::size_t Slash = SubTok.find('/');
    try {
      std::size_t UsedN = 0, UsedD = 0;
      if (Slash == std::string::npos)
        throw std::invalid_argument("no slash");
      Out.Config.SubsampleNum =
          static_cast<unsigned>(std::stoul(SubTok.substr(0, Slash), &UsedN));
      std::string Den = SubTok.substr(Slash + 1);
      Out.Config.SubsampleDen =
          static_cast<unsigned>(std::stoul(Den, &UsedD));
      if (UsedN != Slash || UsedD != Den.size())
        throw std::invalid_argument("trailing junk");
    } catch (...) {
      rejectCounter().inc();
      return fail(Err, "malformed subsample fraction");
    }
  }

  if (!std::getline(In, Line)) {
    rejectCounter().inc();
    return fail(Err, "truncated model file (no base line)");
  }
  {
    std::istringstream F(Line);
    std::string Tag, Tok;
    if (!(F >> Tag >> Tok) || Tag != "base" || !parseDouble(Tok, Out.Base)) {
      rejectCounter().inc();
      return fail(Err, "malformed base line");
    }
  }

  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream F(Line);
    std::string Tag, ThrTok, LeftTok, RightTok;
    Stump S;
    std::string Trail;
    if (!(F >> Tag >> S.Feature >> ThrTok >> LeftTok >> RightTok) ||
        Tag != "stump" || S.Feature >= featureCount() ||
        !parseDouble(ThrTok, S.Threshold) || !parseDouble(LeftTok, S.Left) ||
        !parseDouble(RightTok, S.Right) || bool(F >> Trail)) {
      rejectCounter().inc();
      return fail(Err, "malformed stump line: " + Line);
    }
    Out.Stumps.push_back(S);
  }
  if (!SawEnd) {
    rejectCounter().inc();
    return fail(Err, "truncated model file (no end marker)");
  }
  return true;
}

bool pinj::model::saveModel(const GbStumpsModel &M, const std::string &Path,
                            std::string *Err) {
  return writeFileAtomically(Path, serializeModel(M), Err);
}

bool pinj::model::loadModel(const std::string &Path, GbStumpsModel &Out,
                            std::string *Err) {
  std::string Text;
  if (!readFile(Path, Text))
    return fail(Err, "cannot open model file " + Path);
  return parseModel(Text, Out, Err);
}
