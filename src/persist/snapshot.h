#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace relcomp {

/// Container format version. SnapshotReader::Open refuses any other value —
/// a version bump invalidates old snapshots by construction (the engine then
/// rebuilds from source), never misparses them.
inline constexpr uint32_t kSnapshotVersion = 1;

/// Section ids of the engine snapshot. The container itself is agnostic —
/// any (id, payload) pair round-trips — these are the ids PersistentStore
/// writes. Ids 2 and 3 are retired: older snapshots carried the graph in 2
/// and a BFS Sharing generation in 3, and readers, which find sections by
/// id, never look at either.
inline constexpr uint32_t kSectionManifest = 1;
inline constexpr uint32_t kSectionProbTree = 4;

/// \brief Builds and atomically publishes one snapshot container.
///
/// On-disk layout (see src/persist/README.md for the byte-level spec):
///
///   FileHeader   magic "RELSNAP1", version, section count, total file
///                size, CRC32C of the section table, CRC32C of the header
///                itself — 32 bytes.
///   SectionTable one 32-byte entry per section: id, payload CRC32C,
///                offset, length.
///   Payloads     each aligned to a 64-byte boundary (zero padding).
///
/// Commit() publishes atomically: the full image is written to `<path>.tmp`,
/// fsync'd, renamed over `path`, and the directory fsync'd — a crash at any
/// step leaves either the old snapshot or the new one, never a torn file
/// visible under `path`. Every write/fsync step probes the fault-injection
/// sites kCrashPoint / kFileShortWrite / kFsyncFailure (content-derived
/// keys), which is how the crash matrix in tests/persist_test.cc kills the
/// publish at every step.
class SnapshotWriter {
 public:
  /// Registers `payload` under `id` (order preserved; ids must be unique).
  void AddSection(uint32_t id, std::string payload);

  /// Writes and atomically publishes the container to `path`. An injected
  /// crash returns kInternal with "simulated crash" and abandons the
  /// operation exactly where it stands (torn tmp file, missing fsync, ...);
  /// an injected or real fsync failure aborts *before* rename, so the
  /// previous snapshot stays live. Real I/O errors return kIOError.
  Status Commit(const std::string& path) const;

 private:
  struct Pending {
    uint32_t id;
    std::string payload;
  };
  std::vector<Pending> sections_;
};

/// \brief Opens, validates, and mmaps a snapshot container.
///
/// Open() verifies everything up front — magic, version, header CRC, file
/// size, section-table CRC, and every section's payload CRC32C — so a
/// successful open hands out sections whose bytes are proven intact, and a
/// single flipped bit anywhere fails the open with kIOError. Sections are
/// zero-copy views into the read-only mapping, valid while the reader
/// lives.
class SnapshotReader {
 public:
  struct Section {
    uint32_t id = 0;
    const uint8_t* data = nullptr;
    size_t size = 0;
    /// Byte offset of the payload within the file (tests use this to place
    /// targeted bit flips).
    size_t file_offset = 0;
  };

  /// kNotFound when `path` does not exist; kIOError for every validation
  /// failure (truncation, bad magic, version mismatch, CRC mismatch).
  static Result<std::unique_ptr<SnapshotReader>> Open(const std::string& path);

  ~SnapshotReader() = default;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// The section with `id`, or nullptr.
  const Section* Find(uint32_t id) const;
  const std::vector<Section>& sections() const { return sections_; }

  size_t file_size() const { return file_size_; }

 private:
  SnapshotReader() = default;

  std::shared_ptr<const void> backing_;
  std::vector<Section> sections_;
  size_t file_size_ = 0;
};

}  // namespace relcomp
