// sweep_journal.h — crash-safe checkpoint journal for long sweeps.
//
// A sweep that runs for hours must survive a kill, an OOM or a power cut
// without discarding completed points.  The journal is an append-only
// JSONL file where every line is an independently checksummed record,
//
//   {"crc":"<8 hex>","rec":{...}}
//
// with the CRC32 (IEEE 802.3) computed over the serialized `rec` body.
// The first record is a header binding the journal to one run shape —
// point count, base seed and a caller-supplied config digest — so a
// journal can never be replayed against a different sweep.  Each
// completed point appends one record carrying its caller-encoded result
// payload, flushed and fsync'd before the write returns (a record is
// either durable or absent, never half-trusted).  Payloads are escaped
// with strings::jsonEscape; the loader also accepts the `\b`/`\f` short
// escapes that older journals used, so those still resume.
//
// Recovery rules (deliberately forgiving — a journal is an optimization,
// never a reason to crash):
//  * missing / zero-length / garbage file       -> fresh run, warning;
//  * header mismatch (shape or digest changed)  -> fresh run, warning;
//  * torn or corrupt tail record                -> truncate to the last
//    good record, keep the valid prefix, warning;
//  * duplicate index in the valid prefix        -> first wins, warning.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fefet::sim {

/// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the per-record
/// checksum.  crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(std::string_view data);

/// Journaling knobs carried inside sim::SweepOptions.
struct SweepJournalOptions {
  /// Journal file path; empty disables journaling.
  std::string path;
  /// Replay completed points from an existing journal at `path` instead of
  /// re-simulating them.  Without this flag an existing file is
  /// overwritten.
  bool resume = false;
  /// Caller-supplied digest of everything that shapes the per-point work
  /// (model parameters, sweep axes…).  A resumed journal must match it.
  std::uint64_t configDigest = 0;
};

/// One replayable point record.
struct SweepJournalRecord {
  std::size_t index = 0;
  std::string payload;  ///< caller-encoded result
};

/// Result of scanning an existing journal file.
struct SweepJournalLoad {
  /// Header present and matching the expected run shape; records are
  /// trustworthy and `validBytes` marks the append position.
  bool usable = false;
  /// Human-readable reason when not usable, or a non-fatal anomaly note
  /// (torn tail, duplicate record) when usable.  Empty = clean.
  std::string warning;
  std::vector<SweepJournalRecord> records;  ///< unique, CRC-verified
  std::uint64_t validBytes = 0;  ///< file offset after the last good record
  std::size_t duplicates = 0;    ///< point records dropped first-wins
};

class SweepJournal {
 public:
  /// Scan `path` and validate it against the expected run shape.  Never
  /// throws on bad content — every corruption mode degrades to
  /// `usable = false` (fresh run) or a truncated-tail prefix.
  static SweepJournalLoad load(const std::string& path,
                               std::size_t expectedPoints,
                               std::uint64_t baseSeed,
                               std::uint64_t configDigest);

  /// Open `path` for appending.  With a usable `resumeFrom`, the file is
  /// truncated to its validBytes (dropping any torn tail) and appended to;
  /// otherwise it is recreated with a fresh header record.  Throws
  /// SimulationError when the file cannot be opened/written.
  SweepJournal(const std::string& path, std::size_t points,
               std::uint64_t baseSeed, std::uint64_t configDigest,
               const SweepJournalLoad* resumeFrom = nullptr);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Append one completed-point record and fsync it.  Callers serialize
  /// (the sweep engine holds its mutex while appending).
  void appendPoint(std::size_t index, std::string_view payload);

  const std::string& path() const { return path_; }

 private:
  void appendLine(const std::string& body);

  std::string path_;
  int fd_ = -1;
};

}  // namespace fefet::sim
