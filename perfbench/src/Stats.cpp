//===- perfbench/src/Stats.cpp - Sample statistics ------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

using namespace perfbench;

void perfbench::fail(Result &R, const std::string &Why) {
  if (++R.Failed <= 10)
    std::printf("FAILED: %s\n", Why.c_str());
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * (V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - Lo);
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

double perfbench::tailPercentile(std::size_t MinSamples) {
  double Best = 50;
  for (double P : {90.0, 95.0, 99.0, 99.9})
    if (MinSamples * (1 - P / 100.0) >= 10)
      Best = P;
  return Best;
}

std::string perfbench::percentileName(double P) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "p%g", P);
  return Buf;
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

double perfbench::timeSetup(const std::function<void()> &Setup,
                            std::size_t &Reps) {
  constexpr std::size_t MinReps = 5;
  constexpr double MinTotalS = 0.5;
  std::vector<double> Seconds;
  double TotalS = 0;
  while (Seconds.size() < MinReps || TotalS < MinTotalS) {
    Clock::time_point T0 = Clock::now();
    Setup();
    Seconds.push_back(msSince(T0) / 1000.0);
    TotalS += Seconds.back();
  }
  Reps = Seconds.size();
  return median(Seconds);
}
