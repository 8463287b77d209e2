#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "reliability/estimator_factory.h"

namespace relcomp {

/// What OpenSnapshot recovered. `valid` is false when there was no usable
/// snapshot (absent, corrupt, version-refused, or built for a different
/// graph/config) — the engine then rebuilds from source; nothing here is
/// ever a hard error on the cold-start path.
struct SnapshotArtifacts {
  bool valid = false;
  /// Mmap-backed BFS Sharing generation (null when the snapshot carries no
  /// BFS section). Shares the snapshot mapping — O(1) cold start.
  std::shared_ptr<const BfsSharingIndex> bfs_index;
  /// Restored ProbTree index (null when absent).
  std::shared_ptr<const ProbTreeIndex> prob_tree;
};

/// Digest of everything beyond a warm-journal record's cache key that decides
/// its answer: the graph fingerprint and the factory's index configuration
/// (the identity the snapshot manifest records) plus the engine's stratum
/// count. The engine stamps it on every record it journals and replays only
/// records that carry its own.
uint64_t WarmJournalDigest(const UncertainGraph& graph,
                           const FactoryOptions& options, uint32_t num_strata);

/// \brief The engine's crash-safe persistence root: one checksummed snapshot
/// (`<dir>/snapshot.relsnap`) plus one append-only warm-state journal
/// (`<dir>/warm.journal`).
///
/// Recovery policy (see src/persist/README.md, "Restart semantics"):
///  - every corruption mode is *detected* (per-section CRC32C, header and
///    table checksums, journal frame CRCs), counted in
///    `persist_corruption_detected_total`, and degraded — a bad snapshot is
///    quarantined to `<path>.corrupt` and the engine rebuilds from source; a
///    torn journal tail is discarded and the intact prefix replayed;
///  - a snapshot built for a different graph, seed, or index configuration
///    is a *mismatch* (`persist_snapshot_mismatch_total`), not corruption:
///    it is left in place and ignored (a config rollback would make it
///    usable again);
///  - successful recoveries count in `persist_recovered_total` labelled by
///    source (`snapshot` or `journal`); rebuilds forced while persistence
///    is configured count under source `rebuild`.
class PersistentStore {
 public:
  /// Opens (creating if needed) the persistence directory. `metrics` may be
  /// null (counters are then dropped).
  static Result<std::unique_ptr<PersistentStore>> Open(
      const std::string& dir, obs::MetricsRegistry* metrics);

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& journal_path() const { return journal_path_; }

  /// Writes and atomically publishes a snapshot of the graph plus whichever
  /// indexes are non-null, under a manifest recording the graph fingerprint
  /// and the index configuration in `options`.
  Status WriteSnapshot(const UncertainGraph& graph,
                       const FactoryOptions& options,
                       const BfsSharingIndex* bfs_index,
                       const ProbTreeIndex* prob_tree);

  /// Opens the snapshot and restores its artifacts if it is intact AND was
  /// built for exactly this (graph, options) identity. Never a hard error:
  /// corruption quarantines + counts, mismatch counts, absence is silent —
  /// all return `valid == false`.
  SnapshotArtifacts OpenSnapshot(const UncertainGraph& graph,
                                 const FactoryOptions& options);

  /// Reconstructs the graph stored in the snapshot (tools/tests; the engine
  /// gets its graph from the caller and only validates the fingerprint).
  Result<UncertainGraph> LoadGraphFromSnapshot();

  /// \name Warm-state journal
  /// @{
  /// Appends one record (opening the journal on first use); callers batch
  /// appends and then Sync once.
  Status AppendWarm(uint8_t type, const std::string& payload);
  Status SyncJournal();
  /// Replays every intact record; counts replays and torn tails.
  Result<JournalReplay> ReplayWarm();
  /// Truncates the journal (after the restored warm state has been folded
  /// back into the caches, the next flush re-journals it fresh).
  Status ResetJournal();
  /// @}

  /// Count a rebuild-from-source forced while persistence is configured.
  void CountRebuild();
  /// Count entries successfully replayed into the warm caches.
  void CountJournalRecovered(uint64_t entries);

 private:
  PersistentStore(std::string dir, obs::MetricsRegistry* metrics);

  void Count(obs::Counter* counter, uint64_t delta = 1);
  /// Quarantines a corrupt snapshot out of the open path (rename to
  /// `<path>.corrupt`) so the next startup doesn't re-detect it.
  void QuarantineSnapshot(const Status& why);

  std::string dir_;
  std::string snapshot_path_;
  std::string journal_path_;
  std::optional<JournalWriter> journal_;

  obs::Counter* corruption_detected_ = nullptr;
  obs::Counter* recovered_snapshot_ = nullptr;
  obs::Counter* recovered_journal_ = nullptr;
  obs::Counter* recovered_rebuild_ = nullptr;
  obs::Counter* snapshot_mismatch_ = nullptr;
  obs::Counter* journal_entries_ = nullptr;
  obs::Counter* journal_replayed_ = nullptr;
  obs::Counter* journal_torn_ = nullptr;
  obs::Gauge* snapshot_bytes_ = nullptr;
};

}  // namespace relcomp
