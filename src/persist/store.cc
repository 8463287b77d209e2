#include "persist/store.h"

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>

#include "common/format.h"
#include "common/wire.h"
#include "graph/graph_io.h"
#include "persist/snapshot.h"

namespace relcomp {

namespace {

/// Bit 0 is retired: older snapshots set it for a BFS Sharing section (id
/// 3). It is written as 0 and never read.
constexpr uint32_t kManifestFlagProbTree = 1u << 1;

/// The identity a snapshot was built for. A snapshot is applied only when
/// every field matches the restarting engine's (graph, options) — anything
/// else is a mismatch and the engine rebuilds from source.
struct Manifest {
  uint64_t fingerprint = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t index_seed = 0;
  uint32_t flags = 0;
  uint32_t prob_tree_width = 0;
  uint32_t prob_tree_max_distance = 0;
  uint8_t prob_tree_distance_distributions = 0;
};

std::string SerializeManifest(const Manifest& m) {
  std::string out;
  WireWriter writer(&out);
  writer.PutU64(m.fingerprint);
  writer.PutU64(m.num_nodes);
  writer.PutU64(m.num_edges);
  writer.PutU64(m.index_seed);
  writer.PutU32(m.flags);
  writer.PutU32(0);  // retired: BFS Sharing's L
  writer.PutU32(m.prob_tree_width);
  writer.PutU32(m.prob_tree_max_distance);
  writer.PutU8(m.prob_tree_distance_distributions);
  for (int i = 0; i < 7; ++i) writer.PutU8(0);  // pad
  return out;
}

bool ParseManifest(const void* data, size_t size, Manifest* m) {
  WireReader reader(data, size);
  uint32_t retired = 0;
  return reader.ReadU64(&m->fingerprint) && reader.ReadU64(&m->num_nodes) &&
         reader.ReadU64(&m->num_edges) && reader.ReadU64(&m->index_seed) &&
         reader.ReadU32(&m->flags) && reader.ReadU32(&retired) &&
         reader.ReadU32(&m->prob_tree_width) &&
         reader.ReadU32(&m->prob_tree_max_distance) &&
         reader.ReadU8(&m->prob_tree_distance_distributions);
}

Manifest ManifestFor(const UncertainGraph& graph, const FactoryOptions& options,
                     bool with_prob_tree) {
  Manifest m;
  m.fingerprint = GraphFingerprint(graph);
  m.num_nodes = graph.num_nodes();
  m.num_edges = graph.num_edges();
  m.index_seed = options.index_seed;
  m.flags = with_prob_tree ? kManifestFlagProbTree : 0;
  m.prob_tree_width = with_prob_tree ? options.prob_tree.width : 0;
  m.prob_tree_max_distance =
      with_prob_tree ? options.prob_tree.max_distance : 0;
  m.prob_tree_distance_distributions =
      with_prob_tree && options.prob_tree.precompute_distance_distributions
          ? 1
          : 0;
  return m;
}

/// True when `have` was built for the graph and options `want` records:
/// graph identity and index seed always, the ProbTree configuration when
/// `have` carries a ProbTree index.
bool ManifestMatches(const Manifest& have, const Manifest& want) {
  return have.fingerprint == want.fingerprint &&
         have.num_nodes == want.num_nodes &&
         have.num_edges == want.num_edges &&
         have.index_seed == want.index_seed &&
         (!(have.flags & kManifestFlagProbTree) ||
          (have.prob_tree_width == want.prob_tree_width &&
           have.prob_tree_max_distance == want.prob_tree_max_distance &&
           have.prob_tree_distance_distributions ==
               want.prob_tree_distance_distributions));
}

}  // namespace

PersistentStore::PersistentStore(std::string dir,
                                 obs::MetricsRegistry* metrics)
    : snapshot_path_(std::move(dir) + "/snapshot.relsnap") {
  if (metrics == nullptr) return;
  corruption_detected_ =
      metrics->GetCounter("persist_corruption_detected_total");
  recovered_snapshot_ =
      metrics->GetCounter("persist_recovered_total", "source", "snapshot");
  recovered_rebuild_ =
      metrics->GetCounter("persist_recovered_total", "source", "rebuild");
  snapshot_mismatch_ = metrics->GetCounter("persist_snapshot_mismatch_total");
  snapshot_bytes_ = metrics->GetGauge("persist_snapshot_bytes");
}

void PersistentStore::Count(obs::Counter* counter) {
  if (counter != nullptr) counter->Inc();
}

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    const std::string& dir, obs::MetricsRegistry* metrics) {
  if (dir.empty()) {
    return Status::InvalidArgument("persistence directory must be non-empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("create persistence directory %s: %s",
                                     dir.c_str(), ec.message().c_str()));
  }
  return std::unique_ptr<PersistentStore>(new PersistentStore(dir, metrics));
}

Status PersistentStore::WriteSnapshot(const UncertainGraph& graph,
                                      const FactoryOptions& options,
                                      const ProbTreeIndex* prob_tree) {
  const Manifest manifest = ManifestFor(graph, options, prob_tree != nullptr);
  SnapshotWriter writer;
  writer.AddSection(kSectionManifest, SerializeManifest(manifest));
  if (prob_tree != nullptr) {
    std::string payload;
    prob_tree->AppendBlock(&payload);
    writer.AddSection(kSectionProbTree, std::move(payload));
  }
  RELCOMP_RETURN_NOT_OK(writer.Commit(snapshot_path_));
  if (snapshot_bytes_ != nullptr) {
    struct stat st;
    if (::stat(snapshot_path_.c_str(), &st) == 0) {
      snapshot_bytes_->Set(static_cast<double>(st.st_size));
    }
  }
  return Status::OK();
}

void PersistentStore::QuarantineSnapshot(const Status& why) {
  Count(corruption_detected_);
  // Move the bad file out of the open path (keeping the bytes for a
  // post-mortem) so the next startup goes straight to rebuild instead of
  // re-detecting the same corruption.
  ::rename(snapshot_path_.c_str(), (snapshot_path_ + ".corrupt").c_str());
  (void)why;
}

SnapshotArtifacts PersistentStore::OpenSnapshot(const UncertainGraph& graph,
                                                const FactoryOptions& options) {
  SnapshotArtifacts artifacts;
  Result<std::unique_ptr<SnapshotReader>> opened =
      SnapshotReader::Open(snapshot_path_);
  if (!opened.ok()) {
    if (opened.status().code() != StatusCode::kNotFound) {
      // Truncation, bad magic, checksum mismatch, or version refusal — all
      // detected before a single payload byte was trusted.
      QuarantineSnapshot(opened.status());
    }
    return artifacts;
  }
  const std::unique_ptr<SnapshotReader> reader = opened.MoveValue();

  const SnapshotReader::Section* manifest_section =
      reader->Find(kSectionManifest);
  Manifest manifest;
  if (manifest_section == nullptr ||
      !ParseManifest(manifest_section->data, manifest_section->size,
                     &manifest)) {
    QuarantineSnapshot(Status::IOError("snapshot manifest missing/malformed"));
    return artifacts;
  }
  if (!ManifestMatches(manifest,
                       ManifestFor(graph, options, /*with_prob_tree=*/true))) {
    // Built for a different graph or configuration: not corruption — the
    // bytes are intact — so leave the file alone and rebuild from source.
    Count(snapshot_mismatch_);
    return artifacts;
  }

  if (manifest.flags & kManifestFlagProbTree) {
    const SnapshotReader::Section* section = reader->Find(kSectionProbTree);
    if (section == nullptr) {
      QuarantineSnapshot(Status::IOError("ProbTree section missing"));
      return artifacts;
    }
    Result<ProbTreeIndex> index =
        ProbTreeIndex::FromBlock(section->data, section->size);
    if (!index.ok()) {
      QuarantineSnapshot(index.status());
      return artifacts;
    }
    artifacts.prob_tree =
        std::make_shared<const ProbTreeIndex>(index.MoveValue());
  }
  artifacts.valid = true;
  return artifacts;
}

void PersistentStore::CountRecovered(bool from_snapshot) {
  Count(from_snapshot ? recovered_snapshot_ : recovered_rebuild_);
}

}  // namespace relcomp
