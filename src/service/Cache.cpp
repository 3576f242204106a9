//===- service/Cache.cpp --------------------------------------------------===//

#include "service/Cache.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "sched/Schedule.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

using namespace pinj;
using namespace pinj::service;

namespace {

// Counter references are cached once; the registry keeps them valid for
// the process lifetime and increments are relaxed atomics, so these are
// safe from any worker thread.
obs::Counter &hitCounter() {
  static obs::Counter &C = obs::metrics().counter("service.cache.hits");
  return C;
}
obs::Counter &missCounter() {
  static obs::Counter &C = obs::metrics().counter("service.cache.misses");
  return C;
}
obs::Counter &evictCounter() {
  static obs::Counter &C = obs::metrics().counter("service.cache.evictions");
  return C;
}
obs::Counter &storeCounter() {
  static obs::Counter &C = obs::metrics().counter("service.cache.stores");
  return C;
}
obs::Counter &diskHitCounter() {
  static obs::Counter &C = obs::metrics().counter("service.cache.disk_hits");
  return C;
}
obs::Counter &diskRejectCounter() {
  static obs::Counter &C =
      obs::metrics().counter("service.cache.disk_rejects");
  return C;
}
obs::Counter &quarantineCounter() {
  static obs::Counter &C =
      obs::metrics().counter("service.cache.quarantined");
  return C;
}

constexpr const char *FormatHeader = "polyinject-cache v1";
constexpr const char *QuarantineSubdir = "quarantine";

/// Moves \p Path into <Dir>/quarantine/ keeping the file name, creating
/// the directory on demand. A name collision overwrites the previous
/// quarantined copy (same corruption, newer evidence). \returns the new
/// path, or "" when the move could not be made (the file then stays in
/// place and will be rejected again — correct, just slower).
std::string quarantineFile(const std::string &Dir, const std::string &Path,
                           const std::string &Why) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::path QDir = fs::path(Dir) / QuarantineSubdir;
  fs::create_directories(QDir, Ec);
  if (Ec)
    return std::string();
  fs::path Dest = QDir / fs::path(Path).filename();
  fs::rename(Path, Dest, Ec);
  if (Ec) {
    // Cross-device or permission trouble: fall back to copy+remove so
    // the entry still leaves the hot path.
    fs::copy_file(Path, Dest, fs::copy_options::overwrite_existing, Ec);
    if (Ec)
      return std::string();
    fs::remove(Path, Ec);
  }
  quarantineCounter().inc();
  obs::JournalEvent("quarantine")
      .field("file", fs::path(Path).filename().string())
      .field("reason", Why);
  return Dest.string();
}

} // namespace

std::string service::encodeCacheEntry(const Fingerprint &Key,
                                      const CachedCompilation &Entry) {
  std::string Out;
  Out += FormatHeader;
  Out += '\n';
  Out += "fingerprint " + Key.str() + '\n';
  Out += "influenced ";
  Out += Entry.Influenced ? '1' : '0';
  Out += '\n';
  Out += "veceligible ";
  Out += Entry.VecEligible ? '1' : '0';
  Out += '\n';
  const std::pair<const char *, const Schedule *> Configs[] = {
      {"isl", &Entry.Isl}, {"novec", &Entry.Novec}, {"infl", &Entry.Infl}};
  for (const auto &[Name, Sched] : Configs) {
    std::string Text = serializeSchedule(*Sched);
    // Length prefix: the payload is read as an exact byte range, so a
    // truncated file can never silently yield a shorter schedule.
    Out += "config ";
    Out += Name;
    Out += ' ' + std::to_string(Text.size()) + '\n';
    Out += Text;
  }
  Out += "end\n";
  return Out;
}

namespace {

/// Reads one '\n'-terminated line starting at \p Pos; advances \p Pos
/// past the newline. Fails on end-of-text (every line in the format is
/// newline-terminated, so a missing newline means truncation).
bool takeLine(const std::string &Text, std::size_t &Pos, std::string &Line) {
  if (Pos >= Text.size())
    return false;
  std::size_t Nl = Text.find('\n', Pos);
  if (Nl == std::string::npos)
    return false;
  Line = Text.substr(Pos, Nl - Pos);
  Pos = Nl + 1;
  return true;
}

bool parseFlagLine(const std::string &Line, const std::string &Key,
                   bool &Out) {
  if (Line == Key + " 0") {
    Out = false;
    return true;
  }
  if (Line == Key + " 1") {
    Out = true;
    return true;
  }
  return false;
}

} // namespace

bool service::decodeCacheEntry(const std::string &Text,
                               const Fingerprint &Expect,
                               CachedCompilation &Out, std::string &Error) {
  std::size_t Pos = 0;
  std::string Line;
  if (!takeLine(Text, Pos, Line) || Line != FormatHeader) {
    Error = "bad or missing format header";
    return false;
  }
  if (!takeLine(Text, Pos, Line) ||
      Line != "fingerprint " + Expect.str()) {
    Error = "fingerprint mismatch or malformed fingerprint line";
    return false;
  }
  if (!takeLine(Text, Pos, Line) ||
      !parseFlagLine(Line, "influenced", Out.Influenced)) {
    Error = "malformed influenced line";
    return false;
  }
  if (!takeLine(Text, Pos, Line) ||
      !parseFlagLine(Line, "veceligible", Out.VecEligible)) {
    Error = "malformed veceligible line";
    return false;
  }
  const std::pair<const char *, Schedule *> Configs[] = {
      {"isl", &Out.Isl}, {"novec", &Out.Novec}, {"infl", &Out.Infl}};
  for (const auto &[Name, Sched] : Configs) {
    if (!takeLine(Text, Pos, Line)) {
      Error = std::string("missing config line for ") + Name;
      return false;
    }
    std::istringstream LS(Line);
    std::string Tag, Got;
    std::uint64_t Size = 0;
    if (!(LS >> Tag >> Got >> Size) || Tag != "config" || Got != Name ||
        !(LS >> std::ws).eof()) {
      Error = std::string("malformed config line for ") + Name;
      return false;
    }
    // Guard the range check against Pos + Size overflowing.
    if (Size > Text.size() || Pos > Text.size() - Size) {
      Error = std::string("truncated schedule payload for ") + Name;
      return false;
    }
    std::string Payload = Text.substr(Pos, Size);
    Pos += Size;
    std::string SchedError;
    std::optional<Schedule> S = deserializeSchedule(Payload, SchedError);
    if (!S) {
      Error = std::string(Name) + " schedule: " + SchedError;
      return false;
    }
    *Sched = std::move(*S);
  }
  if (!takeLine(Text, Pos, Line) || Line != "end") {
    Error = "missing 'end' terminator";
    return false;
  }
  if (Pos != Text.size()) {
    Error = "trailing bytes after 'end'";
    return false;
  }
  return true;
}

ScheduleCache::ScheduleCache() : ScheduleCache(Config()) {}

ScheduleCache::ScheduleCache(Config C) : Cfg(std::move(C)) {
  std::size_t N = std::min<std::size_t>(std::max<std::size_t>(Cfg.Stripes, 1),
                                        256);
  // More stripes than capacity slots would leave shards with zero
  // entries each; each shard always gets at least one slot.
  ShardCapacity = Cfg.Capacity == 0 ? 0 : std::max<std::size_t>(
                                              Cfg.Capacity / N, 1);
  ShardCapBytes = Cfg.MemoryCapBytes == 0
                      ? 0
                      : std::max<std::size_t>(Cfg.MemoryCapBytes / N, 1);
  Shards.reserve(N);
  for (std::size_t I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

ScheduleCache::Shard &ScheduleCache::shardFor(const Fingerprint &Key) {
  return *Shards[(Key.Hi ^ Key.Lo) % Shards.size()];
}

const ScheduleCache::Shard &
ScheduleCache::shardFor(const Fingerprint &Key) const {
  return *Shards[(Key.Hi ^ Key.Lo) % Shards.size()];
}

CacheStats ScheduleCache::stats() const {
  CacheStats Sum;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    Sum.Hits += S->Stats.Hits;
    Sum.Misses += S->Stats.Misses;
    Sum.Evictions += S->Stats.Evictions;
    Sum.Stores += S->Stats.Stores;
    Sum.DiskHits += S->Stats.DiskHits;
    Sum.DiskRejects += S->Stats.DiskRejects;
    Sum.Quarantined += S->Stats.Quarantined;
  }
  return Sum;
}

std::size_t ScheduleCache::size() const {
  std::size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    N += S->Lru.size();
  }
  return N;
}

std::size_t ScheduleCache::memoryBytes() const {
  std::size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    N += S->Bytes;
  }
  return N;
}

void ScheduleCache::clearMemory() {
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    S->Lru.clear();
    S->Index.clear();
    S->Bytes = 0;
  }
}

std::string ScheduleCache::diskPathFor(const Fingerprint &Key) const {
  if (Cfg.DiskDir.empty())
    return std::string();
  return (std::filesystem::path(Cfg.DiskDir) / (Key.str() + ".psc"))
      .string();
}

std::string ScheduleCache::quarantineDir() const {
  if (Cfg.DiskDir.empty())
    return std::string();
  return (std::filesystem::path(Cfg.DiskDir) / QuarantineSubdir).string();
}

bool ScheduleCache::memoryLookup(const Fingerprint &Key,
                                 CachedCompilation &Out) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Index.find(Key);
  if (It == S.Index.end())
    return false;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Out = It->second->Value;
  return true;
}

void ScheduleCache::insertMemory(const Fingerprint &Key,
                                 const CachedCompilation &Value) {
  if (ShardCapacity == 0)
    return;
  // Approximate the footprint with the serialized size — computed
  // outside the shard lock; it dominates the actual heap cost and gives
  // MemoryCapBytes a stable, testable meaning.
  std::size_t Bytes = encodeCacheEntry(Key, Value).size();
  if (ShardCapBytes != 0 && Bytes > ShardCapBytes)
    return; // Larger than a whole shard slice: serve it, don't keep it.
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    S.Bytes -= It->second->Bytes;
    S.Bytes += Bytes;
    It->second->Value = Value;
    It->second->Bytes = Bytes;
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return;
  }
  S.Lru.push_front(Entry{Key, Value, Bytes});
  S.Index[Key] = S.Lru.begin();
  S.Bytes += Bytes;
  while (S.Lru.size() > ShardCapacity ||
         (ShardCapBytes != 0 && S.Bytes > ShardCapBytes)) {
    S.Bytes -= S.Lru.back().Bytes;
    S.Index.erase(S.Lru.back().Key);
    S.Lru.pop_back();
    ++S.Stats.Evictions;
    evictCounter().inc();
  }
}

void ScheduleCache::quarantineRejected(const std::string &Path,
                                       const std::string &Why, Shard &S) {
  if (!Cfg.QuarantineRejects)
    return;
  std::string Dest = quarantineFile(Cfg.DiskDir, Path, Why);
  if (Dest.empty())
    return;
  std::lock_guard<std::mutex> L(S.Mu);
  ++S.Stats.Quarantined;
}

bool ScheduleCache::diskLookup(const Fingerprint &Key, const Kernel &K,
                               CachedCompilation &Out) {
  std::string Path = diskPathFor(Key);
  if (Path.empty())
    return false;
  std::string Text;
  if (!readFile(Path, Text))
    return false; // Not present: a plain miss, not a reject.
  std::string Error;
  CachedCompilation Decoded;
  bool Ok = decodeCacheEntry(Text, Key, Decoded, Error);
  if (Ok && (!Decoded.Isl.compatibleWith(K) ||
             !Decoded.Novec.compatibleWith(K) ||
             !Decoded.Infl.compatibleWith(K))) {
    Ok = false;
    Error = "schedule incompatible with kernel";
  }
  if (!Ok) {
    // Corrupt, truncated, stale-format or wrong-shape entry: count it,
    // move it aside so this is the *last* time it is read, and fall
    // through to a miss. Never an error.
    Shard &S = shardFor(Key);
    {
      std::lock_guard<std::mutex> L(S.Mu);
      ++S.Stats.DiskRejects;
    }
    diskRejectCounter().inc();
    quarantineRejected(Path, Error, S);
    return false;
  }
  Out = std::move(Decoded);
  return true;
}

void ScheduleCache::diskStore(const Fingerprint &Key,
                              const CachedCompilation &Value) {
  std::string Path = diskPathFor(Key);
  if (Path.empty())
    return;
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Cfg.DiskDir, Ec);
  if (Ec)
    return; // Disk tier is best-effort; memory tier already has it.
  // Best-effort as well: a failed write leaves the previous file, if any.
  writeFileAtomically(Path, encodeCacheEntry(Key, Value));
}

bool ScheduleCache::lookup(const Kernel &K, const PipelineOptions &Options,
                           CachedCompilation &Out) {
  Fingerprint Key = fingerprintRequest(K, Options);
  Shard &S = shardFor(Key);
  if (memoryLookup(Key, Out)) {
    {
      std::lock_guard<std::mutex> L(S.Mu);
      ++S.Stats.Hits;
    }
    hitCounter().inc();
    return true;
  }
  if (diskLookup(Key, K, Out)) {
    insertMemory(Key, Out);
    {
      std::lock_guard<std::mutex> L(S.Mu);
      ++S.Stats.Hits;
      ++S.Stats.DiskHits;
    }
    hitCounter().inc();
    diskHitCounter().inc();
    return true;
  }
  {
    std::lock_guard<std::mutex> L(S.Mu);
    ++S.Stats.Misses;
  }
  missCounter().inc();
  return false;
}

void ScheduleCache::store(const Kernel &K, const PipelineOptions &Options,
                          const CachedCompilation &Entry) {
  // Belt and braces: never cache schedules that do not fit the kernel
  // (the pipeline only stores degradation-free results, but the hook is
  // a public interface).
  if (!Entry.Isl.compatibleWith(K) || !Entry.Novec.compatibleWith(K) ||
      !Entry.Infl.compatibleWith(K))
    return;
  Fingerprint Key = fingerprintRequest(K, Options);
  insertMemory(Key, Entry);
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> L(S.Mu);
    ++S.Stats.Stores;
  }
  storeCounter().inc();
  diskStore(Key, Entry);
}

//===----------------------------------------------------------------------===//
// Startup sweep
//===----------------------------------------------------------------------===//

SweepReport service::sweepCacheDir(const std::string &DiskDir) {
  SweepReport Report;
  if (DiskDir.empty())
    return Report;
  namespace fs = std::filesystem;
  std::error_code Ec;
  if (!fs::is_directory(DiskDir, Ec) || Ec)
    return Report; // Nothing persisted yet: an empty, clean report.

  // Deterministic order: collect then sort, so two sweeps of the same
  // damage journal the same sequence (the recovery test compares runs).
  std::vector<std::string> Paths;
  for (const fs::directory_entry &E : fs::directory_iterator(DiskDir, Ec)) {
    if (Ec)
      break;
    if (!E.is_regular_file())
      continue; // Skips the quarantine/ subdirectory itself.
    Paths.push_back(E.path().string());
  }
  std::sort(Paths.begin(), Paths.end());

  for (const std::string &Path : Paths) {
    ++Report.Scanned;
    fs::path P(Path);
    std::string Name = P.filename().string();
    std::string Why;

    if (P.extension() == ".psc") {
      // A committed entry: its stem must be a fingerprint and its
      // payload must decode against that fingerprint, exactly as a
      // lookup would demand.
      Fingerprint Key;
      if (!Fingerprint::fromHex(P.stem().string(), Key)) {
        Why = "file name is not a fingerprint";
      } else {
        std::string Text;
        if (!readFile(Path, Text))
          Why = "unreadable";
        if (Why.empty()) {
          CachedCompilation Decoded;
          std::string Error;
          if (!decodeCacheEntry(Text, Key, Decoded, Error))
            Why = Error;
        }
      }
      if (Why.empty()) {
        ++Report.Kept;
        continue;
      }
    } else if (Name.find(".tmp.") != std::string::npos) {
      // A torn write: the process died between open and rename. The
      // rename-atomic protocol guarantees no reader ever trusted it,
      // but it still occupies the directory — move it aside.
      Why = "stranded temp file (torn write)";
    } else {
      // Unknown debris (editors, copies): leave it alone. The lookup
      // path never reads it, so it cannot poison anything.
      ++Report.Kept;
      continue;
    }

    std::string Dest = quarantineFile(DiskDir, Path, Why);
    if (!Dest.empty()) {
      ++Report.Quarantined;
      Report.QuarantinedFiles.push_back(Dest);
    } else {
      ++Report.Kept; // Could not move it; it stays, still inert.
    }
  }
  return Report;
}
