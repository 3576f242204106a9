//===- tune/TuningDb.cpp --------------------------------------------------===//

#include "tune/TuningDb.h"

#include "obs/Metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pinj;
using namespace pinj::tune;

namespace {

// On-disk format (text, one file):
//
//   polyinject-tunedb v1
//   entry <32hex key> <32hex space-sig> <strategy> <predicted %.17g> <len>
//   <len bytes of encoding>\n
//   ...
//   end
//
// Every entry is revalidated on load; anything malformed is skipped by
// resynchronizing on the next "entry " line, counted as a reject.

constexpr const char *FileHeader = "polyinject-tunedb v1";

obs::Counter &rejectCounter() {
  static obs::Counter &C = obs::metrics().counter("tune.db_rejects");
  return C;
}

bool parseHex64(const std::string &S, std::size_t At, std::uint64_t &Out) {
  if (At + 16 > S.size())
    return false;
  Out = 0;
  for (std::size_t I = 0; I < 16; ++I) {
    char C = S[At + I];
    unsigned Nibble;
    if (C >= '0' && C <= '9')
      Nibble = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nibble = unsigned(C - 'a') + 10;
    else
      return false;
    Out = (Out << 4) | Nibble;
  }
  return true;
}

bool parseFingerprint(const std::string &Hex, service::Fingerprint &Out) {
  return Hex.size() == 32 && parseHex64(Hex, 0, Out.Hi) &&
         parseHex64(Hex, 16, Out.Lo);
}

bool validHex32(const std::string &S) {
  if (S.size() != 32)
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

} // namespace

TuningDb::TuningDb(std::string Path) : Path(std::move(Path)) {
  std::lock_guard<std::mutex> Lock(Mu);
  loadLocked();
}

void TuningDb::loadLocked() {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return; // Missing file: empty database.

  std::string Line;
  if (!std::getline(In, Line) || Line != FileHeader) {
    // Unknown version or not a tuning database at all: ignore the whole
    // file (one reject) rather than misread entries.
    ++St.Rejects;
    rejectCounter().inc();
    return;
  }

  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    // Parse one entry line; on any damage fall through to the reject
    // path, which resynchronizes on the next line (getline already
    // consumed this one).
    std::istringstream Fields(Line);
    std::string Tag, KeyHex, Sig, Strategy, TimeText;
    std::size_t Len = 0;
    bool Ok = bool(Fields >> Tag >> KeyHex >> Sig >> Strategy >> TimeText >>
                   Len) &&
              Tag == "entry";
    service::Fingerprint Key;
    DbEntry E;
    if (Ok)
      Ok = parseFingerprint(KeyHex, Key) && validHex32(Sig);
    if (Ok) {
      try {
        std::size_t Used = 0;
        E.PredictedTimeUs = std::stod(TimeText, &Used);
        Ok = Used == TimeText.size();
      } catch (...) {
        Ok = false;
      }
    }
    if (Ok && Len <= 1 << 20) {
      std::string Payload(Len, '\0');
      In.read(&Payload[0], static_cast<std::streamsize>(Len));
      char Newline = 0;
      In.get(Newline);
      if (In && Newline == '\n') {
        E.Encoding = std::move(Payload);
        E.Strategy = std::move(Strategy);
        E.SpaceSignature = std::move(Sig);
        Entries[Key] = std::move(E);
        continue;
      }
      // Truncated payload: the stream may be past line boundaries now;
      // getline resynchronizes on whatever text remains.
      Ok = false;
    }
    ++St.Rejects;
    rejectCounter().inc();
  }
  if (!SawEnd) {
    // Truncated file (no terminator): keep what validated, count the
    // damage once.
    ++St.Rejects;
    rejectCounter().inc();
  }
}

void TuningDb::saveLocked() {
  static obs::Counter &WriteErrors =
      obs::metrics().counter("tune.db_write_errors");

  std::ostringstream Out;
  Out << FileHeader << '\n';
  for (const auto &[Key, E] : Entries) {
    char Time[64];
    std::snprintf(Time, sizeof(Time), "%.17g", E.PredictedTimeUs);
    Out << "entry " << Key.str() << ' ' << E.SpaceSignature << ' '
        << E.Strategy << ' ' << Time << ' ' << E.Encoding.size() << '\n'
        << E.Encoding << '\n';
  }
  Out << "end\n";
  if (!writeFileAtomically(Path, Out.str()))
    WriteErrors.inc();
}

bool TuningDb::lookup(const service::Fingerprint &Key, DbEntry &Out) {
  static obs::Counter &Misses = obs::metrics().counter("tune.db_misses");
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++St.Misses;
    Misses.inc();
    return false;
  }
  ++St.Hits;
  Out = It->second;
  return true;
}

void TuningDb::store(const service::Fingerprint &Key, const DbEntry &E) {
  static obs::Counter &Stores = obs::metrics().counter("tune.db_stores");
  std::lock_guard<std::mutex> Lock(Mu);
  Entries[Key] = E;
  ++St.Stores;
  Stores.inc();
  if (!Path.empty())
    saveLocked();
}

TuningDb::Stats TuningDb::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

std::size_t TuningDb::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}
