//===- obs/Metrics.cpp ----------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace pinj;
using namespace pinj::obs;

double HistogramSummary::percentile(double Q) const {
  if (Count == 0 || Buckets.empty())
    return 0;
  Q = std::clamp(Q, 0.0, 100.0);
  // Nearest-rank target in [1, Count].
  double Target = Q / 100.0 * static_cast<double>(Count);
  if (Target < 1)
    Target = 1;
  std::uint64_t Cum = 0;
  for (unsigned I = 0; I < Buckets.size(); ++I) {
    if (Buckets[I] == 0)
      continue;
    std::uint64_t Prev = Cum;
    Cum += Buckets[I];
    if (static_cast<double>(Cum) < Target)
      continue;
    double Frac = (Target - static_cast<double>(Prev)) /
                  static_cast<double>(Buckets[I]);
    double Lo = Histogram::bucketLowerBound(I);
    double Hi = Histogram::bucketUpperBound(I);
    // Linear interpolation in the [0,1) bucket, geometric in the log
    // buckets (constant relative step matches the bucket scheme).
    double V = I == 0 ? Frac * Hi : Lo * std::pow(Hi / Lo, Frac);
    return std::clamp(V, Min, Max);
  }
  return Max;
}

void HistogramSummary::merge(const HistogramSummary &Other) {
  if (Other.Count == 0)
    return;
  if (Count == 0) {
    Min = Other.Min;
    Max = Other.Max;
  } else {
    Min = std::min(Min, Other.Min);
    Max = std::max(Max, Other.Max);
  }
  Count += Other.Count;
  Sum += Other.Sum;
  if (!Other.Buckets.empty()) {
    // Other may stop at its last used bucket (a TallyRecord's do); this
    // summary keeps the full scheme, as add() expects.
    if (Buckets.size() < Histogram::NumBuckets)
      Buckets.resize(Histogram::NumBuckets, 0);
    for (std::size_t I = 0; I < Other.Buckets.size(); ++I)
      Buckets[I] += Other.Buckets[I];
  }
}

unsigned Histogram::bucketIndex(double Sample) {
  if (!(Sample >= 1))
    return 0;
  int I = static_cast<int>(std::floor(std::log2(Sample) * 4.0)) + 1;
  if (I < 1)
    I = 1;
  if (I >= static_cast<int>(NumBuckets))
    I = NumBuckets - 1;
  return static_cast<unsigned>(I);
}

double Histogram::bucketLowerBound(unsigned I) {
  return I == 0 ? 0.0 : std::exp2((I - 1) / 4.0);
}

double Histogram::bucketUpperBound(unsigned I) {
  return I == 0 ? 1.0 : std::exp2(I / 4.0);
}

void HistogramSummary::add(double Sample) {
  if (Count == 0) {
    Min = Max = Sample;
    Buckets.assign(Histogram::NumBuckets, 0);
  } else {
    Min = std::min(Min, Sample);
    Max = std::max(Max, Sample);
  }
  ++Count;
  Sum += Sample;
  ++Buckets[Histogram::bucketIndex(Sample)];
}

void Histogram::observe(double Sample) {
  {
    std::lock_guard<std::mutex> L(Mu);
    S.add(Sample);
  }
  if (Tally *T = detail::CurrentTally)
    T->observe(Id, Sample);
}

void Histogram::merge(const HistogramSummary &Samples) {
  {
    std::lock_guard<std::mutex> L(Mu);
    S.merge(Samples);
  }
  if (Tally *T = detail::CurrentTally)
    T->merge(Id, Samples);
}

void Tally::merge(unsigned HistogramId, const HistogramSummary &Other) {
  if (HistogramId == NoMetricId)
    return;
  if (HistogramId >= Samples.size())
    Samples.resize(HistogramId + 1);
  Samples[HistogramId].merge(Other);
}

void Tally::observe(unsigned HistogramId, double Sample) {
  if (HistogramId == NoMetricId)
    return;
  if (HistogramId >= Samples.size())
    Samples.resize(HistogramId + 1);
  Samples[HistogramId].add(Sample);
}

void Tally::merge(const Tally &Other) {
  if (Counts.size() < Other.Counts.size())
    Counts.resize(Other.Counts.size(), 0);
  for (std::size_t I = 0; I < Other.Counts.size(); ++I)
    Counts[I] += Other.Counts[I];
  if (Samples.size() < Other.Samples.size())
    Samples.resize(Other.Samples.size());
  for (std::size_t I = 0; I < Other.Samples.size(); ++I)
    Samples[I].merge(Other.Samples[I]);
}

std::uint64_t Tally::count(const Counter &C) const {
  return C.Id < Counts.size() ? Counts[C.Id] : 0;
}

MetricsSnapshot Tally::nonzero() const {
  MetricsSnapshot S;
  const MetricsRegistry &R = metrics();
  std::lock_guard<std::mutex> L(R.Mu);
  for (std::size_t I = 0; I < Counts.size(); ++I)
    if (Counts[I] != 0)
      S.Counters.emplace(R.CountersById[I]->first, Counts[I]);
  for (std::size_t I = 0; I < Samples.size(); ++I)
    if (Samples[I].Count != 0)
      S.Histograms.emplace(R.HistogramsById[I]->first, Samples[I]);
  return S;
}

TallyRecord::TallyRecord(const Tally &T) {
  MetricsRegistry &R = metrics();
  std::lock_guard<std::mutex> L(R.Mu);
  for (std::size_t I = 0; I < T.Counts.size(); ++I)
    if (T.Counts[I] != 0)
      Counts.emplace_back(&R.CountersById[I]->second, T.Counts[I]);
  for (std::size_t I = 0; I < T.Samples.size(); ++I) {
    if (T.Samples[I].Count == 0)
      continue;
    HistogramSummary Kept = T.Samples[I];
    while (!Kept.Buckets.empty() && Kept.Buckets.back() == 0)
      Kept.Buckets.pop_back();
    Kept.Buckets.shrink_to_fit();
    Samples.emplace_back(&R.HistogramsById[I]->second, std::move(Kept));
  }
}

void TallyRecord::replay() const {
  for (const auto &[C, N] : Counts)
    C->add(N);
  for (const auto &[H, S] : Samples)
    H->merge(S);
}

std::uint64_t MetricsSnapshot::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

const HistogramSummary *
MetricsSnapshot::histogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : &It->second;
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot &Before) const {
  MetricsSnapshot Delta;
  for (const auto &[Name, Value] : Counters) {
    std::uint64_t Base = Before.counter(Name);
    Delta.Counters[Name] = Value >= Base ? Value - Base : 0;
  }
  for (const auto &[Name, Summary] : Histograms) {
    HistogramSummary D = Summary;
    if (const HistogramSummary *Base = Before.histogram(Name)) {
      D.Count = Summary.Count >= Base->Count ? Summary.Count - Base->Count : 0;
      D.Sum = Summary.Sum - Base->Sum;
      for (std::size_t I = 0;
           I < D.Buckets.size() && I < Base->Buckets.size(); ++I)
        D.Buckets[I] = D.Buckets[I] >= Base->Buckets[I]
                           ? D.Buckets[I] - Base->Buckets[I]
                           : 0;
    }
    Delta.Histograms[Name] = D;
  }
  return Delta;
}

std::string MetricsSnapshot::json() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"' + json::escape(Name) + "\":" + std::to_string(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"' + json::escape(Name) +
           "\":{\"count\":" + std::to_string(H.Count) +
           ",\"sum\":" + json::number(H.Sum) +
           ",\"min\":" + json::number(H.Min) +
           ",\"max\":" + json::number(H.Max) +
           ",\"p50\":" + json::number(H.percentile(50)) +
           ",\"p90\":" + json::number(H.percentile(90)) +
           ",\"p99\":" + json::number(H.percentile(99)) +
           ",\"buckets\":{";
    bool FirstBucket = true;
    for (std::size_t I = 0; I < H.Buckets.size(); ++I) {
      if (H.Buckets[I] == 0)
        continue;
      if (!FirstBucket)
        Out += ',';
      FirstBucket = false;
      Out += '"' + std::to_string(I) +
             "\":" + std::to_string(H.Buckets[I]);
    }
    Out += "}}";
  }
  Out += "}}";
  return Out;
}

std::string MetricsSnapshot::table() const {
  size_t Width = 0;
  for (const auto &[Name, Value] : Counters)
    if (Value != 0)
      Width = std::max(Width, Name.size());
  for (const auto &[Name, H] : Histograms)
    if (H.Count != 0)
      Width = std::max(Width, Name.size());

  std::string Out;
  char Buf[160];
  for (const auto &[Name, Value] : Counters) {
    if (Value == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf), "%-*s %12llu\n",
                  static_cast<int>(Width), Name.c_str(),
                  static_cast<unsigned long long>(Value));
    Out += Buf;
  }
  for (const auto &[Name, H] : Histograms) {
    if (H.Count == 0)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "%-*s %12llu  (sum %.0f, min %.0f, max %.0f, mean %.1f)\n",
                  static_cast<int>(Width), Name.c_str(),
                  static_cast<unsigned long long>(H.Count), H.Sum, H.Min,
                  H.Max, H.Count ? H.Sum / static_cast<double>(H.Count) : 0.0);
    Out += Buf;
  }
  return Out;
}

MetricsRegistry &MetricsRegistry::get() {
  static MetricsRegistry R;
  return R;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto [It, New] = Counters.try_emplace(Name);
  if (New) {
    It->second.Id = static_cast<unsigned>(CountersById.size());
    CountersById.push_back(&*It);
  }
  return It->second;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto [It, New] = Histograms.try_emplace(Name);
  if (New) {
    It->second.Id = static_cast<unsigned>(HistogramsById.size());
    HistogramsById.push_back(&*It);
  }
  return It->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  MetricsSnapshot S;
  for (const auto &[Name, C] : Counters)
    S.Counters[Name] = C.value();
  for (const auto &[Name, H] : Histograms)
    S.Histograms[Name] = H.summary();
  return S;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[Name, C] : Counters)
    C.reset();
  for (auto &[Name, H] : Histograms)
    H.reset();
}
