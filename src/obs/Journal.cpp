//===- obs/Journal.cpp - Request-scoped structured event journal ----------===//

#include "obs/Journal.h"

#include "obs/Json.h"

#include <chrono>
#include <random>

namespace pinj {
namespace obs {

//===----------------------------------------------------------------------===//
// JournalRecord
//===----------------------------------------------------------------------===//

std::string JournalRecord::jsonl() const {
  std::string Out;
  Out.reserve(96 + Fields.size() * 24);
  renderTo(Out);
  return Out;
}

void JournalRecord::renderTo(std::string &Out) const {
  Out += "{\"ts_us\":";
  Out += json::number(TsUs);
  Out += ",\"request_id\":\"";
  json::escapeTo(Out, RequestId);
  Out += "\",\"type\":\"";
  json::escapeTo(Out, Type);
  Out += '"';
  for (const Field &F : Fields) {
    Out += ',';
    json::appendField(Out, F);
  }
  Out += '}';
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

Journal::Journal() : Epoch(std::chrono::steady_clock::now()) {}

Journal &Journal::get() {
  static Journal J;
  return J;
}

double Journal::nowUs() const {
  auto Delta = std::chrono::steady_clock::now() - Epoch;
  return std::chrono::duration<double, std::micro>(Delta).count();
}

void Journal::enable(std::size_t RingCapacity) {
  std::lock_guard<std::mutex> Lock(Mu);
  Capacity = RingCapacity == 0 ? 1 : RingCapacity;
  while (Ring.size() > Capacity) {
    Ring.pop_front();
    ++Dropped;
  }
  EnabledFlag.store(true, std::memory_order_relaxed);
}

void Journal::disable() {
  EnabledFlag.store(false, std::memory_order_relaxed);
}

bool Journal::openFile(const std::string &Path, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (FileOpen) {
    File.flush();
    File.close();
    FileOpen = false;
  }
  File.open(Path, std::ios::out | std::ios::trunc);
  if (!File) {
    Error = "cannot open journal file: " + Path;
    return false;
  }
  FileOpen = true;
  return true;
}

void Journal::closeFile() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!FileOpen)
    return;
  File.flush();
  File.close();
  FileOpen = false;
}

void Journal::flushFile() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (FileOpen)
    File.flush();
}

void Journal::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.clear();
  Dropped = 0;
  Epoch = std::chrono::steady_clock::now();
}

void Journal::emit(JournalRecord R) {
  if (!enabled())
    return;
  R.TsUs = nowUs();
  std::lock_guard<std::mutex> Lock(Mu);
  if (FileOpen) {
    LineBuf.clear();
    R.renderTo(LineBuf);
    LineBuf += '\n';
    File.write(LineBuf.data(),
               static_cast<std::streamsize>(LineBuf.size()));
  }
  Ring.push_back(std::move(R));
  while (Ring.size() > Capacity) {
    Ring.pop_front();
    ++Dropped;
  }
}

std::vector<JournalRecord> Journal::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return std::vector<JournalRecord>(Ring.begin(), Ring.end());
}

std::uint64_t Journal::dropped() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Dropped;
}

std::size_t Journal::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Ring.size();
}

//===----------------------------------------------------------------------===//
// Request identity
//===----------------------------------------------------------------------===//

namespace {

// Fixed per-process token so ids from different fleet processes do not
// collide when journals are aggregated offline. Eight hex digits drawn
// once from the system entropy source.
std::string processToken() {
  static const std::string Token = [] {
    std::random_device Rd;
    std::uint32_t Bits = (static_cast<std::uint32_t>(Rd()) << 16) ^ Rd();
    char Buf[9];
    std::snprintf(Buf, sizeof(Buf), "%08x", Bits);
    return std::string(Buf);
  }();
  return Token;
}

thread_local std::string CurrentRequestId;

} // namespace

std::string nextRequestId() {
  static std::atomic<std::uint64_t> Seq{0};
  std::uint64_t N = Seq.fetch_add(1, std::memory_order_relaxed);
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%08llx",
                static_cast<unsigned long long>(N));
  return "r" + processToken() + "-" + Buf;
}

const std::string &currentRequestId() { return CurrentRequestId; }

RequestScope::RequestScope(std::string Id)
    : Previous(std::move(CurrentRequestId)) {
  CurrentRequestId = std::move(Id);
}

RequestScope::~RequestScope() { CurrentRequestId = std::move(Previous); }

const std::string &RequestScope::id() const { return CurrentRequestId; }

} // namespace obs
} // namespace pinj
