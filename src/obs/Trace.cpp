//===- obs/Trace.cpp ------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace pinj;
using namespace pinj::obs;

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

namespace {

/// Per-thread span state: a small stable thread id (Chrome trace "tid")
/// and the current nesting depth on this thread.
struct ThreadTraceState {
  unsigned Tid;
  unsigned Depth = 0;

  ThreadTraceState() {
    static std::atomic<unsigned> NextTid{1};
    Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  }
};

ThreadTraceState &threadState() {
  thread_local ThreadTraceState S;
  return S;
}

} // namespace

void Tracer::enable(unsigned ModeMask) {
  Modes.fetch_or(ModeMask, std::memory_order_relaxed);
  EnabledFlag.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  Modes.store(0, std::memory_order_relaxed);
  EnabledFlag.store(false, std::memory_order_relaxed);
}

void Tracer::reset() {
  std::lock_guard<std::mutex> L(Mu);
  Events.clear();
  OpenCount = 0;
  Epoch = std::chrono::steady_clock::now();
}

unsigned Tracer::openSpan(const char *Name, const char *Category) {
  ThreadTraceState &T = threadState();
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Depth = T.Depth++;
  E.Tid = T.Tid;
  std::lock_guard<std::mutex> L(Mu);
  E.BeginUs = nowUs();
  unsigned Index = static_cast<unsigned>(Events.size());
  Events.push_back(std::move(E));
  ++OpenCount;
  return Index;
}

void Tracer::closeSpan(unsigned Index) {
  ThreadTraceState &T = threadState();
  if (T.Depth > 0)
    --T.Depth;
  std::lock_guard<std::mutex> L(Mu);
  // Guard against reset()/disable() between open and close.
  if (Index >= Events.size())
    return;
  TraceEvent &E = Events[Index];
  if (E.Closed)
    return;
  E.DurUs = nowUs() - E.BeginUs;
  E.Closed = true;
  if (OpenCount > 0)
    --OpenCount;
  if (humanEnabled())
    printHuman(E);
  // Without JSON buffering there is no reader of closed events: drop
  // them once nothing is open anywhere so a long human-mode run does
  // not grow without bound.
  if (!jsonEnabled() && OpenCount == 0)
    Events.clear();
}

void Tracer::addSpanArg(unsigned Index, Field Arg) {
  std::lock_guard<std::mutex> L(Mu);
  if (Index < Events.size() && !Events[Index].Closed)
    Events[Index].Args.push_back(std::move(Arg));
}

void Tracer::printHuman(const TraceEvent &E) const {
  std::string Args;
  for (const Field &A : E.Args) {
    Args += ' ';
    Args += A.Key;
    Args += '=';
    Args += A.Value;
  }
  std::fprintf(stderr, "[trace] %*s%s%s (%.1f us)\n", E.Depth * 2, "",
               E.Name.c_str(), Args.c_str(), E.DurUs);
}

std::string Tracer::json() const {
  std::lock_guard<std::mutex> L(Mu);
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  // Metadata events name the process and each thread track, so viewers
  // show "worker-N" instead of bare tids.
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"polyinject\"}}";
  First = false;
  std::vector<unsigned> Tids;
  for (const TraceEvent &E : Events)
    if (std::find(Tids.begin(), Tids.end(), E.Tid) == Tids.end())
      Tids.push_back(E.Tid);
  std::sort(Tids.begin(), Tids.end());
  for (unsigned Tid : Tids)
    Out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(Tid) + ",\"args\":{\"name\":\"worker-" +
           std::to_string(Tid) + "\"}}";
  for (const TraceEvent &E : Events) {
    if (!E.Closed)
      continue; // Still open; no duration yet.
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"" + json::escape(E.Name) + "\",\"cat\":\"" +
           json::escape(E.Category) + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(E.Tid) + ",\"ts\":" + json::number(E.BeginUs) +
           ",\"dur\":" + json::number(E.DurUs);
    if (!E.Args.empty()) {
      Out += ",\"args\":{";
      bool FirstArg = true;
      for (const Field &A : E.Args) {
        if (!FirstArg)
          Out += ',';
        FirstArg = false;
        json::appendField(Out, A);
      }
      Out += '}';
    }
    Out += '}';
  }
  Out += "]}";
  return Out;
}

void Tracer::setAutoFlushPath(std::string Path) {
  std::lock_guard<std::mutex> L(Mu);
  AutoFlushPath = std::move(Path);
}

void Tracer::autoFlush() const {
  std::string Path;
  {
    std::lock_guard<std::mutex> L(Mu);
    Path = AutoFlushPath;
  }
  if (Path.empty())
    return;
  std::string Error;
  (void)writeJson(Path, Error);
}

bool Tracer::writeJson(const std::string &Path, std::string &Error) const {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  Out << json() << '\n';
  Out.close();
  if (!Out) {
    Error = "error writing " + Path;
    return false;
  }
  return true;
}

namespace {

/// POLYINJECT_TRACE=1 turns on the human-readable trace at startup — the
/// alias for the historical ad-hoc scheduler stderr trace.
[[maybe_unused]] const bool TraceEnvInit = [] {
  const char *V = std::getenv("POLYINJECT_TRACE");
  if (V && V[0] != '\0' && !(V[0] == '0' && V[1] == '\0'))
    Tracer::get().enable(Tracer::Human);
  return true;
}();

} // namespace
