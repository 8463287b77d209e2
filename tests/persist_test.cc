// Crash-safety matrix for the index snapshot (src/persist/): round-trip
// bitwise identity, crash-point enumeration over the publish protocol,
// corruption detection (bit flips, version bumps), and restart recovery of
// a ProbTree engine proven bit-identical to a fresh build.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/wire.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "persist/snapshot.h"
#include "persist/store.h"
#include "reliability/bfs_sharing.h"
#include "reliability/prob_tree.h"
#include "test_util.h"

namespace relcomp {
namespace {

namespace fs = std::filesystem;
using ::relcomp::testing::CounterValue;
using ::relcomp::testing::RandomSmallGraph;

/// Fresh scratch directory per test and process; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(testing::ScratchPath(name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Disarms the global injector even when a test fails mid-campaign.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::Global().Disable(); }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Bitwise equality of two engine results (payload, not timing).
void ExpectBitIdentical(const EngineResult& a, const EngineResult& b) {
  ASSERT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(std::memcmp(&a.reliability, &b.reliability, sizeof(double)), 0);
  EXPECT_EQ(a.num_samples, b.num_samples);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_EQ(a.targets[i].node, b.targets[i].node);
    EXPECT_EQ(std::memcmp(&a.targets[i].reliability, &b.targets[i].reliability,
                          sizeof(double)),
              0);
  }
}

/// ProbTree answers s-t queries only.
std::vector<EngineQuery> StWorkload() {
  std::vector<EngineQuery> queries;
  queries.push_back(EngineQuery::St(0, 7));
  queries.push_back(EngineQuery::St(1, 4));
  queries.push_back(EngineQuery::St(2, 9));
  queries.push_back(EngineQuery::St(5, 30));
  queries.push_back(EngineQuery::St(0, 7));  // repeat: exercises the cache
  return queries;
}

// ---------------------------------------------------------------------------
// Round-trip bitwise identity of the ProbTree index.
// ---------------------------------------------------------------------------

TEST(PersistRoundTrip, IndexBitIdentical) {
  ScratchDir dir("relcomp_persist_roundtrip");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options;

  Result<std::shared_ptr<const ProbTreeIndex>> prob_tree =
      ProbTreeIndex::BuildShared(graph, options.prob_tree);
  ASSERT_TRUE(prob_tree.ok()) << prob_tree.status();

  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()
                  ->WriteSnapshot(graph, options, prob_tree.value().get())
                  .ok());

  SnapshotArtifacts artifacts = store.value()->OpenSnapshot(graph, options);
  ASSERT_TRUE(artifacts.valid);
  ASSERT_NE(artifacts.prob_tree, nullptr);

  // Re-serializing the restored index must reproduce the original block
  // byte for byte.
  std::string pt_block, pt_block_restored;
  prob_tree.value()->AppendBlock(&pt_block);
  artifacts.prob_tree->AppendBlock(&pt_block_restored);
  EXPECT_EQ(pt_block, pt_block_restored);
}

TEST(PersistRoundTrip, MismatchedGraphRefusesSnapshot) {
  ScratchDir dir("relcomp_persist_mismatch");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const UncertainGraph other = RandomSmallGraph(24, 80, 0.2, 0.8, 8);
  const FactoryOptions options;
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr).ok());
  // Different graph: mismatch, and the file is left in place (not
  // quarantined) — a rollback could make it usable again.
  EXPECT_FALSE(store.value()->OpenSnapshot(other, options).valid);
  EXPECT_TRUE(fs::exists(store.value()->snapshot_path()));
  // Same graph, different index seed: also a mismatch (the manifest pins
  // the whole sampling identity, indexes present or not).
  FactoryOptions different = options;
  different.index_seed ^= 1;
  EXPECT_FALSE(store.value()->OpenSnapshot(graph, different).valid);
}

// ---------------------------------------------------------------------------
// Crash-point enumeration: kill the snapshot publish at every step; the
// previously published snapshot must survive every crash.
// ---------------------------------------------------------------------------

TEST(PersistCrash, SnapshotPublishSurvivesEveryCrashPoint) {
  ScratchDir dir("relcomp_persist_crash_publish");
  InjectorGuard guard;
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options;
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  // Publish once, fault-free: this is the state every crash must preserve.
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr).ok());
  const std::string pristine = ReadFile(store.value()->snapshot_path());

  int crash_points = 0;
  for (int64_t select = 0; select < 10000; ++select) {
    FaultPlan plan;
    plan.crash_point_select = select;
    FaultInjector::Global().Configure(plan);
    const Status republish =
        store.value()->WriteSnapshot(graph, options, nullptr);
    const uint64_t injected =
        FaultInjector::Global().injected(FaultSite::kCrashPoint);
    FaultInjector::Global().Disable();
    if (injected == 0) {
      // Enumeration exhausted: this iteration ran the full protocol.
      EXPECT_TRUE(republish.ok()) << republish;
      break;
    }
    ++crash_points;
    EXPECT_FALSE(republish.ok()) << "crash point " << select;
    // The previous snapshot must still be the live, intact one.
    EXPECT_EQ(ReadFile(store.value()->snapshot_path()), pristine)
        << "crash point " << select << " tore the published snapshot";
    Result<std::unique_ptr<PersistentStore>> reopened =
        PersistentStore::Open(dir.path(), nullptr);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened.value()->OpenSnapshot(graph, options).valid)
        << "crash point " << select;
  }
  // The publish protocol has several distinct steps (per-chunk writes plus
  // fsync / rename / dir-fsync barriers); all must have been exercised.
  EXPECT_GE(crash_points, 4);
}

// ---------------------------------------------------------------------------
// Corruption detection: bit flip in every snapshot section, version bump.
// ---------------------------------------------------------------------------

TEST(PersistCorruption, BitFlipInEverySectionIsDetected) {
  ScratchDir dir("relcomp_persist_bitflip");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options;
  Result<std::shared_ptr<const ProbTreeIndex>> prob_tree =
      ProbTreeIndex::BuildShared(graph, options.prob_tree);
  ASSERT_TRUE(prob_tree.ok()) << prob_tree.status();

  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()
                  ->WriteSnapshot(graph, options, prob_tree.value().get())
                  .ok());
  const std::string path = store.value()->snapshot_path();
  const std::string pristine = ReadFile(path);

  // Enumerate the sections from the pristine container.
  struct Target {
    uint32_t id;
    size_t offset;
  };
  std::vector<Target> targets;
  {
    Result<std::unique_ptr<SnapshotReader>> reader = SnapshotReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    for (const SnapshotReader::Section& section : reader.value()->sections()) {
      ASSERT_GT(section.size, 0u);
      targets.push_back(
          Target{section.id, section.file_offset + section.size / 2});
    }
  }
  ASSERT_EQ(targets.size(), 2u);  // manifest, ProbTree

  for (const Target& target : targets) {
    std::string corrupted = pristine;
    corrupted[target.offset] = static_cast<char>(corrupted[target.offset] ^ 0x40);
    WriteFile(path, corrupted);
    obs::MetricsRegistry metrics;
    Result<std::unique_ptr<PersistentStore>> reopened =
        PersistentStore::Open(dir.path(), &metrics);
    ASSERT_TRUE(reopened.ok());
    EXPECT_FALSE(reopened.value()->OpenSnapshot(graph, options).valid)
        << "flip in section " << target.id << " went undetected";
    EXPECT_GE(
        metrics.GetCounter("persist_corruption_detected_total")->Value(), 1u)
        << "section " << target.id;
    // The corrupt file was quarantined out of the open path.
    EXPECT_FALSE(fs::exists(path)) << "section " << target.id;
    EXPECT_TRUE(fs::exists(path + ".corrupt")) << "section " << target.id;
    fs::remove(path + ".corrupt");
    WriteFile(path, pristine);  // restore for the next section
  }
}

TEST(PersistCorruption, VersionBumpIsRefused) {
  ScratchDir dir("relcomp_persist_version");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options;
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr).ok());
  const std::string path = store.value()->snapshot_path();
  std::string bytes = ReadFile(path);
  // Header layout: magic[8], then version u32.
  const uint32_t future = kSnapshotVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  WriteFile(path, bytes);

  Result<std::unique_ptr<SnapshotReader>> reader = SnapshotReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("unsupported version"),
            std::string::npos)
      << reader.status();
}

// ---------------------------------------------------------------------------
// Restart recovery through a ProbTree engine: the snapshot restores the
// index, bit-identically to a fresh build at 1/2/8 threads.
// ---------------------------------------------------------------------------

EngineOptions PersistEngineOptions(const std::string& dir, size_t threads) {
  EngineOptions options;
  options.kind = EstimatorKind::kProbTree;
  options.num_threads = threads;
  options.num_samples = 64;
  options.persist_dir = dir;
  return options;
}

/// Where `engine`'s Create got its index from, as its registry counts it.
uint64_t Recovered(const QueryEngine& engine, const char* source) {
  return CounterValue(engine.metrics(), "persist_recovered_total", "source",
                      source);
}

TEST(PersistRestart, RestoredEngineBitIdenticalToFreshBuild) {
  ScratchDir dir("relcomp_persist_restart");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const std::vector<EngineQuery> queries = StWorkload();

  // Fresh build, no persistence: the reference answers.
  Result<std::unique_ptr<QueryEngine>> fresh =
      QueryEngine::Create(graph, PersistEngineOptions("", 2));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  Result<std::vector<EngineResult>> reference =
      fresh.value()->RunBatch(queries);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (const EngineResult& r : *reference) ASSERT_TRUE(r.ok()) << r.status;

  // First persistent engine: rebuilds from source, auto-publishes the
  // snapshot.
  {
    Result<std::unique_ptr<QueryEngine>> first =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(Recovered(*first.value(), "rebuild"), 1u);
    ASSERT_TRUE(fs::exists(first.value()->persist_store()->snapshot_path()));
  }

  // Restarted engines at 1 / 2 / 8 threads: every one cold-starts from the
  // snapshot and answers bit-identically to the fresh build.
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Result<std::unique_ptr<QueryEngine>> restored =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), threads));
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(Recovered(*restored.value(), "snapshot"), 1u)
        << threads << " threads";
    Result<std::vector<EngineResult>> results =
        restored.value()->RunBatch(queries);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), reference->size());
    for (size_t i = 0; i < results->size(); ++i) {
      ExpectBitIdentical((*reference)[i], (*results)[i]);
    }
  }
}

TEST(PersistRestart, SnapshotCreateRestoresTheIndexInsteadOfRebuilding) {
  ScratchDir dir("relcomp_persist_restore_count");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const EngineOptions options = PersistEngineOptions(dir.path(), 2);
  const std::string snapshot = dir.path() + "/snapshot.relsnap";
  {
    // Publish: the first engine rebuilds and auto-snapshots.
    Result<std::unique_ptr<QueryEngine>> first =
        QueryEngine::Create(graph, options);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_EQ(Recovered(*first.value(), "rebuild"), 1u);
  }
  const std::string published = ReadFile(snapshot);

  // The restart restores the index and republishes nothing.
  Result<std::unique_ptr<QueryEngine>> restored =
      QueryEngine::Create(graph, options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(Recovered(*restored.value(), "snapshot"), 1u);
  EXPECT_EQ(Recovered(*restored.value(), "rebuild"), 0u);
  EXPECT_EQ(ReadFile(snapshot), published);
}

TEST(PersistRestart, CrashedPublishAtCreateDegradesToRebuild) {
  ScratchDir dir("relcomp_persist_create_crash");
  InjectorGuard guard;
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  // Crash the very first auto-snapshot publish mid-write.
  FaultPlan plan;
  plan.crash_point_select = 0;
  FaultInjector::Global().Configure(plan);
  {
    Result<std::unique_ptr<QueryEngine>> engine =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
    ASSERT_TRUE(engine.ok()) << engine.status();  // publish failure is soft
    EXPECT_EQ(Recovered(*engine.value(), "snapshot"), 0u);
  }
  FaultInjector::Global().Disable();
  // Next restart: no snapshot (the crashed publish never renamed), rebuild
  // again, auto-publish succeeds this time.
  Result<std::unique_ptr<QueryEngine>> engine =
      QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(Recovered(*engine.value(), "snapshot"), 0u);
  ASSERT_TRUE(fs::exists(engine.value()->persist_store()->snapshot_path()));
  EXPECT_GE(Recovered(*engine.value(), "rebuild"), 1u);
}

/// The snapshot a BFS Sharing engine published for `graph` before BFS
/// Sharing engines stopped building a generation at Create: manifest flag
/// bit 0, BFS Sharing's L in the manifest word after the flags, and the
/// generation in section 3 (both ids and the bit are retired).
void WriteBfsSharingSnapshot(const UncertainGraph& graph,
                             const FactoryOptions& options,
                             const std::string& path) {
  std::string manifest;
  WireWriter writer(&manifest);
  writer.PutU64(GraphFingerprint(graph));
  writer.PutU64(graph.num_nodes());
  writer.PutU64(graph.num_edges());
  writer.PutU64(options.index_seed);
  writer.PutU32(1u << 0);  // flags: a BFS Sharing section
  writer.PutU32(options.bfs_sharing.index_samples);
  writer.PutU32(0);  // ProbTree width
  writer.PutU32(0);  // ProbTree max distance
  for (int i = 0; i < 8; ++i) writer.PutU8(0);  // distributions flag, pad
  std::string generation;
  ASSERT_TRUE(BfsSharingIndex::Build(graph, options.bfs_sharing,
                                     options.index_seed)
                  .MoveValue()
                  ->AppendBlock(&generation)
                  .ok());
  SnapshotWriter snapshot;
  snapshot.AddSection(kSectionManifest, std::move(manifest));
  snapshot.AddSection(3, std::move(generation));
  ASSERT_TRUE(snapshot.Commit(path).ok());
}

TEST(PersistRestart, SnapshotWithoutTheKindsIndexIsRebuiltAndRepublished) {
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const EngineOptions options = PersistEngineOptions("", 2);
  // Valid snapshots of this graph that a ProbTree engine cannot use: the
  // manifest-only one an index-free engine used to publish, and the one a
  // BFS Sharing engine used to publish, whose retired section and flag it
  // must ignore, not parse.
  for (const bool bfs_sharing : {false, true}) {
    SCOPED_TRACE(bfs_sharing ? "BFS Sharing snapshot" : "manifest only");
    ScratchDir dir("relcomp_persist_other_index");
    if (bfs_sharing) {
      WriteBfsSharingSnapshot(graph, options.factory,
                              dir.path() + "/snapshot.relsnap");
    } else {
      Result<std::unique_ptr<PersistentStore>> store =
          PersistentStore::Open(dir.path(), nullptr);
      ASSERT_TRUE(store.ok()) << store.status();
      ASSERT_TRUE(
          store.value()->WriteSnapshot(graph, options.factory, nullptr).ok());
    }
    const EngineOptions prob_tree = PersistEngineOptions(dir.path(), 2);
    {
      Result<std::unique_ptr<QueryEngine>> first =
          QueryEngine::Create(graph, prob_tree);
      ASSERT_TRUE(first.ok()) << first.status();
      EXPECT_EQ(Recovered(*first.value(), "snapshot"), 0u);
      EXPECT_EQ(Recovered(*first.value(), "rebuild"), 1u);
      // Neither corrupt nor built for another graph.
      EXPECT_EQ(CounterValue(first.value()->metrics(),
                             "persist_corruption_detected_total"),
                0u);
      EXPECT_EQ(CounterValue(first.value()->metrics(),
                             "persist_snapshot_mismatch_total"),
                0u);
    }
    // The rebuild republished a snapshot that carries the ProbTree index.
    Result<std::unique_ptr<QueryEngine>> restarted =
        QueryEngine::Create(graph, prob_tree);
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    EXPECT_EQ(Recovered(*restarted.value(), "snapshot"), 1u);
    EXPECT_EQ(Recovered(*restarted.value(), "rebuild"), 0u);
  }
}

TEST(PersistRestart, IndexFreeKindNeitherPublishesNorOpensASnapshot) {
  // MC has no index, and a BFS Sharing engine builds no generation at
  // Create: neither has anything to persist.
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  for (const EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing}) {
    SCOPED_TRACE(EstimatorKindName(kind));
    ScratchDir dir("relcomp_persist_index_free");
    const std::string snapshot = dir.path() + "/snapshot.relsnap";
    EngineOptions index_free = PersistEngineOptions(dir.path(), 2);
    index_free.kind = kind;
    // Create and restart: neither touches the snapshot nor counts a
    // recovery.
    const auto create_twice = [&] {
      for (int round = 0; round < 2; ++round) {
        Result<std::unique_ptr<QueryEngine>> engine =
            QueryEngine::Create(graph, index_free);
        ASSERT_TRUE(engine.ok()) << engine.status();
        EXPECT_EQ(engine.value()->persist_store(), nullptr);
        EXPECT_EQ(Recovered(*engine.value(), "snapshot"), 0u);
        EXPECT_EQ(Recovered(*engine.value(), "rebuild"), 0u);
        ASSERT_TRUE(engine.value()->RunBatch({EngineQuery::St(0, 7)}).ok());
      }
    };
    create_twice();
    EXPECT_FALSE(fs::exists(snapshot));

    // Beside a valid snapshot a ProbTree engine published for this graph:
    // the engine leaves it unread and unchanged.
    {
      Result<std::unique_ptr<QueryEngine>> prob_tree =
          QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 1));
      ASSERT_TRUE(prob_tree.ok()) << prob_tree.status();
    }
    const std::string published = ReadFile(snapshot);
    create_twice();
    EXPECT_EQ(ReadFile(snapshot), published);
  }
}

}  // namespace
}  // namespace relcomp
