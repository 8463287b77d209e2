#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "obs/metrics.h"
#include "reliability/estimator_factory.h"

namespace relcomp {

/// What OpenSnapshot recovered. `valid` is false when there was no usable
/// snapshot (absent, corrupt, version-refused, or built for a different
/// graph/config) — the engine then rebuilds from source; nothing here is
/// ever a hard error on the cold-start path.
struct SnapshotArtifacts {
  bool valid = false;
  /// Restored ProbTree index (null when absent).
  std::shared_ptr<const ProbTreeIndex> prob_tree;
};

/// \brief The engine's crash-safe persistence root: one checksummed snapshot
/// of the shared ProbTree index (`<dir>/snapshot.relsnap`).
///
/// Recovery policy (see src/persist/README.md, "Recovery policy"):
///  - every corruption mode is *detected* (per-section CRC32C, header and
///    table checksums), counted in `persist_corruption_detected_total`, and
///    degraded — a bad snapshot is quarantined to `<path>.corrupt` and the
///    engine rebuilds from source;
///  - a snapshot built for a different graph, seed, or index configuration
///    is a *mismatch* (`persist_snapshot_mismatch_total`), not corruption:
///    it is left in place and ignored (a config rollback would make it
///    usable again);
///  - the caller counts where its index came from (CountRecovered):
///    `persist_recovered_total{source="snapshot"}` or `{source="rebuild"}`.
class PersistentStore {
 public:
  /// Opens (creating if needed) the persistence directory. `metrics` may be
  /// null (counters are then dropped).
  static Result<std::unique_ptr<PersistentStore>> Open(
      const std::string& dir, obs::MetricsRegistry* metrics);

  const std::string& snapshot_path() const { return snapshot_path_; }

  /// Writes and atomically publishes a snapshot of `prob_tree` (a manifest
  /// only when it is null), under a manifest recording the graph
  /// fingerprint and the index configuration in `options`.
  Status WriteSnapshot(const UncertainGraph& graph,
                       const FactoryOptions& options,
                       const ProbTreeIndex* prob_tree);

  /// Opens the snapshot and restores its artifacts if it is intact AND was
  /// built for exactly this (graph, options) identity. Never a hard error:
  /// corruption quarantines + counts, mismatch counts, absence is silent —
  /// all return `valid == false`.
  SnapshotArtifacts OpenSnapshot(const UncertainGraph& graph,
                                 const FactoryOptions& options);

  /// Counts where the caller got its index from: the snapshot, or a
  /// rebuild from source.
  void CountRecovered(bool from_snapshot);

 private:
  PersistentStore(std::string dir, obs::MetricsRegistry* metrics);

  void Count(obs::Counter* counter);
  /// Quarantines a corrupt snapshot out of the open path (rename to
  /// `<path>.corrupt`) so the next startup doesn't re-detect it.
  void QuarantineSnapshot(const Status& why);

  std::string snapshot_path_;

  obs::Counter* corruption_detected_ = nullptr;
  obs::Counter* recovered_snapshot_ = nullptr;
  obs::Counter* recovered_rebuild_ = nullptr;
  obs::Counter* snapshot_mismatch_ = nullptr;
  obs::Gauge* snapshot_bytes_ = nullptr;
};

}  // namespace relcomp
