//===- tune/SearchSpace.cpp -----------------------------------------------===//

#include "tune/SearchSpace.h"

#include "service/Fingerprint.h"

#include <algorithm>

using namespace pinj;
using namespace pinj::tune;

SearchSpace::SearchSpace(std::vector<ParamDim> Dims)
    : Dims(std::move(Dims)) {}

std::size_t SearchSpace::size() const {
  if (Dims.empty())
    return 0;
  std::size_t N = 1;
  for (const ParamDim &D : Dims)
    N *= D.Values.size();
  return N;
}

Candidate SearchSpace::candidateAt(std::size_t Index) const {
  Candidate C(Dims.size(), 0);
  for (std::size_t I = Dims.size(); I-- > 0;) {
    std::size_t Radix = Dims[I].Values.size();
    C[I] = static_cast<unsigned>(Index % Radix);
    Index /= Radix;
  }
  return C;
}

Candidate SearchSpace::project(const PipelineOptions &Base) const {
  Candidate C(Dims.size(), 0);
  for (std::size_t I = 0; I < Dims.size(); ++I) {
    std::int64_t V = Dims[I].Read(Base);
    const std::vector<std::int64_t> &Vals = Dims[I].Values;
    auto It = std::find(Vals.begin(), Vals.end(), V);
    C[I] = It == Vals.end()
               ? 0
               : static_cast<unsigned>(It - Vals.begin());
  }
  return C;
}

std::vector<Candidate> SearchSpace::neighbors(const Candidate &C) const {
  std::vector<Candidate> Out;
  for (std::size_t I = 0; I < Dims.size(); ++I) {
    if (C[I] > 0) {
      Candidate N = C;
      --N[I];
      Out.push_back(std::move(N));
    }
    if (C[I] + 1 < Dims[I].Values.size()) {
      Candidate N = C;
      ++N[I];
      Out.push_back(std::move(N));
    }
  }
  return Out;
}

std::string SearchSpace::encode(const Candidate &C) const {
  std::string Out;
  for (std::size_t I = 0; I < Dims.size(); ++I) {
    if (I)
      Out += ',';
    Out += Dims[I].Name;
    Out += '=';
    Out += std::to_string(Dims[I].Values[C[I]]);
  }
  return Out;
}

bool SearchSpace::decode(const std::string &Text, Candidate &Out) const {
  Candidate C(Dims.size(), 0);
  std::size_t Pos = 0;
  for (std::size_t I = 0; I < Dims.size(); ++I) {
    std::size_t End = Text.find(',', Pos);
    if (End == std::string::npos)
      End = Text.size();
    // One "name=value" segment, in dimension order.
    std::size_t Eq = Text.find('=', Pos);
    if (Eq == std::string::npos || Eq >= End)
      return false;
    if (Text.compare(Pos, Eq - Pos, Dims[I].Name) != 0)
      return false;
    std::int64_t V = 0;
    try {
      std::size_t Used = 0;
      V = std::stoll(Text.substr(Eq + 1, End - Eq - 1), &Used);
      if (Used != End - Eq - 1)
        return false;
    } catch (...) {
      return false;
    }
    const std::vector<std::int64_t> &Vals = Dims[I].Values;
    auto It = std::find(Vals.begin(), Vals.end(), V);
    if (It == Vals.end())
      return false;
    C[I] = static_cast<unsigned>(It - Vals.begin());
    // The last segment must run to the end of the text: a ',' after it
    // means trailing segments (a wider space wrote this) or a bare
    // trailing comma, both malformed.
    if (I + 1 == Dims.size() && End != Text.size())
      return false;
    Pos = End == Text.size() ? End : End + 1;
    if (I + 1 < Dims.size() && Pos >= Text.size())
      return false;
  }
  // Every segment is consumed; a space with no dimensions encodes every
  // candidate as the empty string.
  if (Pos != Text.size())
    return false;
  Out = std::move(C);
  return true;
}

void SearchSpace::apply(const Candidate &C, PipelineOptions &O) const {
  for (std::size_t I = 0; I < Dims.size(); ++I)
    Dims[I].Apply(O, Dims[I].Values[C[I]]);
}

std::string SearchSpace::signature() const {
  service::FingerprintBuilder H;
  H.str("pinj-tunespace-v1");
  H.u64(Dims.size());
  for (const ParamDim &D : Dims) {
    H.str(D.Name);
    H.u64(D.Values.size());
    for (std::int64_t V : D.Values)
      H.u64(static_cast<std::uint64_t>(V));
  }
  return H.get().str();
}

namespace {

// Solver-budget tiers: 0 leaves the base scheduling budget untouched;
// 1 and 2 cap per-run simplex pivots and ILP nodes (never wall-clock —
// deterministic work counts keep jobs=1 and jobs=N searches identical).
void applyBudgetTier(PipelineOptions &O, std::int64_t Tier) {
  if (Tier == 0)
    return;
  O.Sched.Budget.MaxPivots = Tier == 1 ? 200000 : 50000;
  O.Sched.Budget.MaxIlpNodes = Tier == 1 ? 20000 : 5000;
}

ParamDim vectorWidthDim() {
  return {"influence.max_vector_width",
          {4, 2, 1},
          [](const PipelineOptions &O) {
            return static_cast<std::int64_t>(O.Influence.MaxVectorWidth);
          },
          [](PipelineOptions &O, std::int64_t V) {
            O.Influence.MaxVectorWidth = static_cast<unsigned>(V);
          }};
}

ParamDim mappingThreadsDim() {
  return {"mapping.max_threads",
          {1024, 512, 256, 128},
          [](const PipelineOptions &O) {
            return static_cast<std::int64_t>(O.Mapping.MaxThreadsPerBlock);
          },
          [](PipelineOptions &O, std::int64_t V) {
            O.Mapping.MaxThreadsPerBlock = static_cast<Int>(V);
          }};
}

} // namespace

SearchSpace tune::defaultSearchSpace() {
  std::vector<ParamDim> Dims;
  Dims.push_back(vectorWidthDim());
  Dims.push_back({"influence.thread_limit",
                  {1024, 512, 256, 128},
                  [](const PipelineOptions &O) {
                    return static_cast<std::int64_t>(O.Influence.ThreadLimit);
                  },
                  [](PipelineOptions &O, std::int64_t V) {
                    O.Influence.ThreadLimit = static_cast<Int>(V);
                  }});
  Dims.push_back({"influence.max_scenarios",
                  {8, 4, 2},
                  [](const PipelineOptions &O) {
                    return static_cast<std::int64_t>(O.Influence.MaxScenarios);
                  },
                  [](PipelineOptions &O, std::int64_t V) {
                    O.Influence.MaxScenarios = static_cast<unsigned>(V);
                  }});
  Dims.push_back({"influence.max_inner_dims",
                  {3, 2, 1},
                  [](const PipelineOptions &O) {
                    return static_cast<std::int64_t>(O.Influence.MaxInnerDims);
                  },
                  [](PipelineOptions &O, std::int64_t V) {
                    O.Influence.MaxInnerDims = static_cast<unsigned>(V);
                  }});
  Dims.push_back(mappingThreadsDim());
  Dims.push_back({"sched.proximity_input",
                  {0, 1},
                  [](const PipelineOptions &O) {
                    return static_cast<std::int64_t>(
                        O.Sched.ProximityIncludesInput ? 1 : 0);
                  },
                  [](PipelineOptions &O, std::int64_t V) {
                    O.Sched.ProximityIncludesInput = V != 0;
                  }});
  Dims.push_back({"sched.budget_tier",
                  {0, 1, 2},
                  [](const PipelineOptions &) {
                    // Tiers are write-only overlays; the baseline always
                    // projects to tier 0 (keep the base budget).
                    return std::int64_t(0);
                  },
                  applyBudgetTier});
  return SearchSpace(std::move(Dims));
}

SearchSpace tune::tinySearchSpace() {
  std::vector<ParamDim> Dims;
  ParamDim Vec = vectorWidthDim();
  Vec.Values = {4, 1};
  Dims.push_back(std::move(Vec));
  ParamDim Threads = mappingThreadsDim();
  Threads.Values = {1024, 256};
  Dims.push_back(std::move(Threads));
  return SearchSpace(std::move(Dims));
}

SearchSpace tune::searchSpaceByName(const std::string &Name) {
  if (Name == "default")
    return defaultSearchSpace();
  if (Name == "tiny")
    return tinySearchSpace();
  return SearchSpace();
}
