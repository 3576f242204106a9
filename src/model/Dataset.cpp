//===- model/Dataset.cpp - Training-sample export -------------------------===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "model/Dataset.h"

#include "obs/Metrics.h"
#include "service/Fingerprint.h"
#include "target/Target.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

using namespace pinj;
using namespace pinj::model;

namespace {

// On-disk format (text, one file):
//
//   polyinject-dataset v2
//   schema <32hex feature-schema hash>
//   space <32hex search-space signature>
//   target <target id token>
//   count <N>
//   sample <kernel> <encoding> <time %.17g> <featureCount() doubles>
//   ...
//   end
//
// Parsing is strict and all-or-nothing: a dataset with silently dropped
// or misparsed samples would train a subtly wrong model, which is worse
// than forcing a rebuild. v2 added the target line (the backend target
// identity the times were scored under); v1 files are stale and
// refused.

constexpr const char *FileHeader = "polyinject-dataset v2";

obs::Counter &rejectCounter() {
  static obs::Counter &C = obs::metrics().counter("model.dataset_rejects");
  return C;
}

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool validHex32(const std::string &S) {
  if (S.size() != 32)
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

/// The file format is whitespace-tokenized; provenance strings must be
/// single tokens.
std::string sanitizeToken(const std::string &S) {
  std::string Out = S.empty() ? "_" : S;
  for (char &C : Out)
    if (std::isspace(static_cast<unsigned char>(C)))
      C = '_';
  return Out;
}

bool parseDoubleTok(const std::string &Tok, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End != Tok.c_str() && *End == '\0' && std::isfinite(Out);
}

} // namespace

std::size_t pinj::model::appendSamples(Dataset &D, const Kernel &K,
                                       const PipelineOptions &Base,
                                       const tune::SearchSpace &Space,
                                       tune::TuningDb *Db,
                                       const DatasetBuildConfig &Cfg) {
  if (D.SchemaHash.empty()) {
    D.SchemaHash = featureSchemaHash();
    D.SpaceSignature = Space.signature();
    D.TargetId = target::targetIdForOptions(Base);
  }
  assert(D.SchemaHash == featureSchemaHash() &&
         "dataset built under another feature schema");
  assert(D.SpaceSignature == Space.signature() &&
         "dataset built under another search space");
  assert(D.TargetId == target::targetIdForOptions(Base) &&
         "dataset built under another backend target");
  if (Space.empty() || Cfg.CandidatesPerKernel == 0)
    return 0;

  // Candidate selection: baseline projection, database winner, then an
  // even deterministic stride over the enumeration.
  std::set<tune::Candidate> Picked;
  Picked.insert(Space.project(Base));
  if (Db) {
    tune::DbEntry E;
    if (Db->lookup(service::fingerprintRequest(K, Base), E) &&
        E.SpaceSignature == Space.signature()) {
      tune::Candidate C;
      if (Space.decode(E.Encoding, C))
        Picked.insert(C);
    }
  }
  std::size_t Total = Space.size();
  std::size_t Want = std::min(Cfg.CandidatesPerKernel, Total);
  std::size_t Stride = std::max<std::size_t>(1, Total / Want);
  for (std::size_t I = 0; I < Total && Picked.size() < Want; I += Stride)
    Picked.insert(Space.candidateAt(I));

  std::vector<tune::Candidate> Batch(Picked.begin(), Picked.end());

  tune::Evaluator::Config ECfg;
  ECfg.Jobs = Cfg.Jobs;
  ECfg.CandidateBudget = Cfg.CandidateBudget;
  ECfg.MaxEvaluations = Batch.size();
  tune::Evaluator Eval(K, Base, Space, ECfg);
  std::vector<double> Scores = Eval.evaluate(Batch);

  FeatureVector KernelSlots = extractFeatures(K, Base);
  std::string KernelName = sanitizeToken(K.Name);

  std::size_t Appended = 0;
  PipelineOptions O;
  for (std::size_t I = 0; I < Batch.size(); ++I) {
    if (Scores[I] == tune::failedScore())
      continue; // No finite time to learn from.
    O = Base;
    Space.apply(Batch[I], O);
    Sample S;
    S.X = KernelSlots;
    writeOptionFeatures(O, S.X);
    S.TimeUs = Scores[I];
    S.Kernel = KernelName;
    S.Encoding = sanitizeToken(Space.encode(Batch[I]));
    D.Samples.push_back(std::move(S));
    ++Appended;
  }
  return Appended;
}

std::string pinj::model::serializeDataset(const Dataset &D) {
  std::ostringstream Out;
  char Buf[64];
  auto G = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return std::string(Buf);
  };
  Out << FileHeader << '\n';
  Out << "schema " << D.SchemaHash << '\n';
  Out << "space " << D.SpaceSignature << '\n';
  Out << "target " << sanitizeToken(D.TargetId) << '\n';
  Out << "count " << D.Samples.size() << '\n';
  for (const Sample &S : D.Samples) {
    Out << "sample " << sanitizeToken(S.Kernel) << ' '
        << sanitizeToken(S.Encoding) << ' ' << G(S.TimeUs);
    for (double V : S.X)
      Out << ' ' << G(V);
    Out << '\n';
  }
  Out << "end\n";
  return Out.str();
}

bool pinj::model::parseDataset(const std::string &Text, Dataset &Out,
                               std::string *Err) {
  Out = Dataset();
  std::istringstream In(Text);
  std::string Line;

  if (!std::getline(In, Line) || Line != FileHeader) {
    rejectCounter().inc();
    return fail(Err, "not a polyinject dataset file (bad header)");
  }

  auto HexLine = [&](const char *Tag, std::string &Dst) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream F(Line);
    std::string T, Hex;
    if (!(F >> T >> Hex) || T != Tag || !validHex32(Hex))
      return false;
    Dst = Hex;
    return true;
  };
  if (!HexLine("schema", Out.SchemaHash)) {
    rejectCounter().inc();
    return fail(Err, "malformed schema line");
  }
  if (Out.SchemaHash != featureSchemaHash()) {
    rejectCounter().inc();
    return fail(Err, "stale dataset: feature schema hash mismatch");
  }
  if (!HexLine("space", Out.SpaceSignature)) {
    rejectCounter().inc();
    return fail(Err, "malformed space line");
  }
  {
    if (!std::getline(In, Line)) {
      rejectCounter().inc();
      return fail(Err, "truncated dataset file (no target line)");
    }
    std::istringstream F(Line);
    std::string Tag, Extra;
    if (!(F >> Tag >> Out.TargetId) || Tag != "target" || (F >> Extra)) {
      rejectCounter().inc();
      return fail(Err, "malformed target line");
    }
  }

  std::size_t Count = 0;
  if (!std::getline(In, Line)) {
    rejectCounter().inc();
    return fail(Err, "truncated dataset file (no count line)");
  }
  {
    std::istringstream F(Line);
    std::string Tag;
    if (!(F >> Tag >> Count) || Tag != "count") {
      rejectCounter().inc();
      return fail(Err, "malformed count line");
    }
  }

  std::size_t NumFeat = featureCount();
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream F(Line);
    std::string Tag, TimeTok;
    Sample S;
    if (!(F >> Tag >> S.Kernel >> S.Encoding >> TimeTok) || Tag != "sample" ||
        !parseDoubleTok(TimeTok, S.TimeUs)) {
      rejectCounter().inc();
      return fail(Err, "malformed sample line: " + Line);
    }
    S.X.reserve(NumFeat);
    std::string Tok;
    while (F >> Tok) {
      double V;
      if (S.X.size() >= NumFeat || !parseDoubleTok(Tok, V)) {
        rejectCounter().inc();
        return fail(Err, "malformed sample features: " + Line);
      }
      S.X.push_back(V);
    }
    if (S.X.size() != NumFeat) {
      rejectCounter().inc();
      return fail(Err, "sample feature count mismatch: " + Line);
    }
    Out.Samples.push_back(std::move(S));
  }
  if (!SawEnd) {
    rejectCounter().inc();
    return fail(Err, "truncated dataset file (no end marker)");
  }
  if (Out.Samples.size() != Count) {
    rejectCounter().inc();
    return fail(Err, "sample count mismatch (header says " +
                         std::to_string(Count) + ", file has " +
                         std::to_string(Out.Samples.size()) + ")");
  }
  return true;
}

bool pinj::model::saveDataset(const Dataset &D, const std::string &Path,
                              std::string *Err) {
  return writeFileAtomically(Path, serializeDataset(D), Err);
}

bool pinj::model::loadDataset(const std::string &Path, Dataset &Out,
                              std::string *Err) {
  std::string Text;
  if (!readFile(Path, Text))
    return fail(Err, "cannot open dataset file " + Path);
  return parseDataset(Text, Out, Err);
}
