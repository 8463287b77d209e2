#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace relcomp {

/// Record types of the engine's warm-state journal. Ids 1 (sweep) and 2
/// (result) were an older layout with a TTL field; they are retired, so
/// such records replay as an unknown type and are skipped.
inline constexpr uint8_t kJournalRecordSweep = 3;
inline constexpr uint8_t kJournalRecordResult = 4;

/// \brief Append-only, torn-tail-tolerant record log for warm state.
///
/// Frame format (see src/persist/README.md):
///
///   payload_len u32 | crc u32 | type u8 | pad u8[3] | payload bytes
///
/// where crc is the CRC32C of (type byte + payload). Appends go through a
/// single O_APPEND descriptor; Sync() makes everything appended so far
/// durable. A crash mid-append leaves a torn final frame that replay detects
/// (short frame or CRC mismatch) and discards — every frame before it is
/// intact because frames are written with one write(2) call each.
///
/// Not thread-safe; the engine serializes flushes behind its journal mutex.
class JournalWriter {
 public:
  /// Opens (creating if needed) `path` for appending.
  static Result<JournalWriter> Open(const std::string& path);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one framed record. After any failure (real or injected) the
  /// writer is poisoned: the tail may be torn, and appending more frames
  /// after a torn one would make them unreachable to replay — so every
  /// subsequent Append fails fast with kFailedPrecondition until the journal
  /// is reopened.
  Status Append(uint8_t type, const std::string& payload);

  /// fsync the journal (probes the fsync-failure fault site).
  Status Sync();

  /// Bytes successfully appended through this writer (journal offset for
  /// fault keys).
  uint64_t offset() const { return offset_; }
  bool poisoned() const { return poisoned_; }

 private:
  JournalWriter(std::string path, int fd, uint64_t offset)
      : path_(std::move(path)), fd_(fd), offset_(offset) {}

  std::string path_;
  int fd_ = -1;
  uint64_t offset_ = 0;
  bool poisoned_ = false;
};

/// One intact record recovered by replay.
struct JournalRecord {
  uint8_t type = 0;
  std::string payload;
};

/// Result of a replay pass: every intact frame, in append order, plus
/// whether a torn tail was discarded to get there.
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// True when the file ends in a short or checksum-failing frame — the
  /// expected shape after a crash mid-append, not an error.
  bool torn_tail = false;
};

/// Reads every intact frame of `path`. Stops cleanly at the first torn
/// frame (sets torn_tail) — a missing file replays as zero records.
/// kIOError only for real I/O failures, never for torn data.
Result<JournalReplay> ReplayJournal(const std::string& path);

}  // namespace relcomp
