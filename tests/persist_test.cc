// Crash-safety matrix for the persistence tier (src/persist/): round-trip
// bitwise identity, crash-point enumeration over the publish and append
// protocols, corruption detection (truncated tail, bit flips, version
// bumps), and restart recovery proven bit-identical to a fresh build.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "persist/journal.h"
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

/// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
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

FactoryOptions SmallIndexOptions() {
  FactoryOptions options;
  options.bfs_sharing.index_samples = 64;
  return options;
}

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

std::vector<EngineQuery> MixedWorkload() {
  std::vector<EngineQuery> queries;
  queries.push_back(EngineQuery::St(0, 7));
  queries.push_back(EngineQuery::TopK(1, 4));
  queries.push_back(EngineQuery::TopK(1, 2));
  queries.push_back(EngineQuery::ReliableSet(1, 0.05));
  queries.push_back(EngineQuery::St(2, 9));
  queries.push_back(EngineQuery::St(0, 7));  // repeat: exercises the cache
  return queries;
}

// ---------------------------------------------------------------------------
// Round-trip bitwise identity: graph, BFS Sharing index, ProbTree index.
// ---------------------------------------------------------------------------

TEST(PersistRoundTrip, AllThreeArtifactsBitIdentical) {
  ScratchDir dir("relcomp_persist_roundtrip");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options = SmallIndexOptions();

  Result<std::shared_ptr<BfsSharingIndex>> bfs = BfsSharingIndex::Build(
      graph, options.bfs_sharing, options.index_seed);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
  Result<std::shared_ptr<const ProbTreeIndex>> prob_tree =
      ProbTreeIndex::BuildShared(graph, options.prob_tree);
  ASSERT_TRUE(prob_tree.ok()) << prob_tree.status();

  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()
                  ->WriteSnapshot(graph, options, bfs.value().get(),
                                  prob_tree.value().get())
                  .ok());

  // Graph: identical fingerprint (every edge's tail/head/prob bits).
  Result<UncertainGraph> restored_graph =
      store.value()->LoadGraphFromSnapshot();
  ASSERT_TRUE(restored_graph.ok()) << restored_graph.status();
  EXPECT_EQ(GraphFingerprint(graph), GraphFingerprint(*restored_graph));

  SnapshotArtifacts artifacts = store.value()->OpenSnapshot(graph, options);
  ASSERT_TRUE(artifacts.valid);
  ASSERT_NE(artifacts.bfs_index, nullptr);
  ASSERT_NE(artifacts.prob_tree, nullptr);

  // Index artifacts: re-serializing the restored index must reproduce the
  // original block byte for byte.
  std::string bfs_block, bfs_block_restored;
  bfs.value()->AppendBlock(&bfs_block);
  artifacts.bfs_index->AppendBlock(&bfs_block_restored);
  EXPECT_EQ(bfs_block, bfs_block_restored);

  std::string pt_block, pt_block_restored;
  prob_tree.value()->AppendBlock(&pt_block);
  artifacts.prob_tree->AppendBlock(&pt_block_restored);
  EXPECT_EQ(pt_block, pt_block_restored);
}

TEST(PersistRoundTrip, MismatchedGraphRefusesSnapshot) {
  ScratchDir dir("relcomp_persist_mismatch");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const UncertainGraph other = RandomSmallGraph(24, 80, 0.2, 0.8, 8);
  const FactoryOptions options = SmallIndexOptions();
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr, nullptr).ok());
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
  const FactoryOptions options = SmallIndexOptions();
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  // Publish once, fault-free: this is the state every crash must preserve.
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr, nullptr).ok());
  const std::string pristine = ReadFile(store.value()->snapshot_path());

  int crash_points = 0;
  for (int64_t select = 0; select < 10000; ++select) {
    FaultPlan plan;
    plan.crash_point_select = select;
    FaultInjector::Global().Configure(plan);
    const Status republish =
        store.value()->WriteSnapshot(graph, options, nullptr, nullptr);
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

TEST(PersistCrash, JournalAppendCrashLeavesReplayablePrefix) {
  ScratchDir dir("relcomp_persist_crash_journal");
  InjectorGuard guard;
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  // Two intact records, then crash-enumerate the third append.
  ASSERT_TRUE(store.value()->AppendWarm(kJournalRecordSweep, "alpha").ok());
  ASSERT_TRUE(store.value()->AppendWarm(kJournalRecordResult, "beta").ok());
  ASSERT_TRUE(store.value()->SyncJournal().ok());

  for (int64_t select = 0; select < 100; ++select) {
    FaultPlan plan;
    plan.crash_point_select = select;
    FaultInjector::Global().Configure(plan);
    const Status append =
        store.value()->AppendWarm(kJournalRecordSweep, "gamma");
    const uint64_t injected =
        FaultInjector::Global().injected(FaultSite::kCrashPoint);
    FaultInjector::Global().Disable();
    Result<JournalReplay> replay = store.value()->ReplayWarm();
    ASSERT_TRUE(replay.ok()) << replay.status();
    ASSERT_GE(replay->records.size(), 2u);
    EXPECT_EQ(replay->records[0].payload, "alpha");
    EXPECT_EQ(replay->records[1].payload, "beta");
    if (injected == 0) {
      EXPECT_TRUE(append.ok());
      break;
    }
    EXPECT_FALSE(append.ok());
    // A poisoned writer reopens on the next append; state stays replayable.
  }

  // A torn tail (short write) must be discarded on replay, intact prefix
  // kept, and the tear reported.
  FaultPlan torn;
  torn.probability[static_cast<size_t>(FaultSite::kFileShortWrite)] = 1.0;
  FaultInjector::Global().Configure(torn);
  EXPECT_FALSE(store.value()->AppendWarm(kJournalRecordSweep, "delta").ok());
  FaultInjector::Global().Disable();
  Result<JournalReplay> replay = store.value()->ReplayWarm();
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->torn_tail);
  ASSERT_GE(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].payload, "alpha");
  EXPECT_EQ(replay->records[1].payload, "beta");
}

// ---------------------------------------------------------------------------
// Corruption detection: truncated journal tail, bit flip in every snapshot
// section, version bump.
// ---------------------------------------------------------------------------

TEST(PersistCorruption, TruncatedJournalTailReplaysPrefix) {
  ScratchDir dir("relcomp_persist_trunc");
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()->AppendWarm(kJournalRecordSweep, "one").ok());
  ASSERT_TRUE(store.value()->AppendWarm(kJournalRecordSweep, "two").ok());
  ASSERT_TRUE(store.value()->SyncJournal().ok());

  std::string bytes = ReadFile(store.value()->journal_path());
  ASSERT_GT(bytes.size(), 3u);
  WriteFile(store.value()->journal_path(),
            bytes.substr(0, bytes.size() - 2));  // tear mid-frame

  Result<JournalReplay> replay = store.value()->ReplayWarm();
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->torn_tail);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "one");
}

TEST(PersistCorruption, BitFlipInEverySectionIsDetected) {
  ScratchDir dir("relcomp_persist_bitflip");
  const UncertainGraph graph = RandomSmallGraph(24, 80, 0.2, 0.8, 7);
  const FactoryOptions options = SmallIndexOptions();
  Result<std::shared_ptr<BfsSharingIndex>> bfs = BfsSharingIndex::Build(
      graph, options.bfs_sharing, options.index_seed);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
  Result<std::shared_ptr<const ProbTreeIndex>> prob_tree =
      ProbTreeIndex::BuildShared(graph, options.prob_tree);
  ASSERT_TRUE(prob_tree.ok()) << prob_tree.status();

  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()
                  ->WriteSnapshot(graph, options, bfs.value().get(),
                                  prob_tree.value().get())
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
  ASSERT_EQ(targets.size(), 4u);  // manifest, graph, BFS, ProbTree

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
  const FactoryOptions options = SmallIndexOptions();
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store.value()->WriteSnapshot(graph, options, nullptr, nullptr).ok());
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
// Restart recovery through the engine: O(1) snapshot cold start, warm-state
// restore, and bit-identity with a fresh build at 1/2/8 threads.
// ---------------------------------------------------------------------------

EngineOptions PersistEngineOptions(const std::string& dir, size_t threads) {
  EngineOptions options;
  options.kind = EstimatorKind::kBfsSharing;
  options.num_threads = threads;
  options.num_samples = 64;
  options.factory = SmallIndexOptions();
  options.persist_dir = dir;
  options.persist_flush_seconds = 0.0;  // flush manually / at destruction
  return options;
}

TEST(PersistRestart, RestoredEngineBitIdenticalToFreshBuild) {
  ScratchDir dir("relcomp_persist_restart");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const std::vector<EngineQuery> queries = MixedWorkload();

  // Fresh build, no persistence: the reference answers.
  EngineOptions fresh_options = PersistEngineOptions("", 2);
  fresh_options.persist_dir.clear();
  Result<std::unique_ptr<QueryEngine>> fresh =
      QueryEngine::Create(graph, fresh_options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  Result<std::vector<EngineResult>> reference =
      fresh.value()->RunBatch(queries);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // First persistent engine: rebuilds from source, auto-publishes the
  // snapshot.
  {
    Result<std::unique_ptr<QueryEngine>> first =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_FALSE(first.value()->warm_restore_report().snapshot_restored);
    ASSERT_TRUE(fs::exists(first.value()->persist_store()->snapshot_path()));
  }

  // Restarted engines at 1 / 2 / 8 threads: every one cold-starts from the
  // snapshot and answers bit-identically to the fresh build.
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Result<std::unique_ptr<QueryEngine>> restored =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), threads));
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_TRUE(restored.value()->warm_restore_report().snapshot_restored)
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

TEST(PersistRestart, WarmRestoreServesFirstQueryFromCache) {
  ScratchDir dir("relcomp_persist_warm");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const std::vector<EngineQuery> queries = MixedWorkload();

  std::vector<EngineResult> first_run;
  {
    Result<std::unique_ptr<QueryEngine>> engine =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
    ASSERT_TRUE(engine.ok()) << engine.status();
    Result<std::vector<EngineResult>> results =
        engine.value()->RunBatch(queries);
    ASSERT_TRUE(results.ok()) << results.status();
    first_run = results.MoveValue();
    ASSERT_TRUE(engine.value()->FlushWarmState().ok());
  }  // destructor also runs the final flush

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    Result<std::unique_ptr<QueryEngine>> restarted =
        QueryEngine::Create(graph, PersistEngineOptions(dir.path(), threads));
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    const auto& report = restarted.value()->warm_restore_report();
    EXPECT_TRUE(report.attempted);
    EXPECT_GT(report.result_entries, 0u);
    EXPECT_GT(report.sweep_entries, 0u);
    EXPECT_EQ(report.skipped, 0u);

    // The very first query after restart hits the restored cache — and the
    // restored answer is bit-identical to the pre-restart computation.
    Result<std::vector<EngineResult>> replayed =
        restarted.value()->RunBatch(queries);
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    EXPECT_TRUE((*replayed)[0].cache_hit);
    for (size_t i = 0; i < replayed->size(); ++i) {
      ExpectBitIdentical(first_run[i], (*replayed)[i]);
    }
  }
}

TEST(PersistRestart, SnapshotCreateMapsTheIndexInsteadOfRebuilding) {
  ScratchDir dir("relcomp_persist_restore_count");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const EngineOptions options = PersistEngineOptions(dir.path(), 2);
  {
    // Publish: the first engine rebuilds and auto-snapshots.
    Result<std::unique_ptr<QueryEngine>> first =
        QueryEngine::Create(graph, options);
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_FALSE(first.value()->warm_restore_report().snapshot_restored);
  }

  const uint64_t builds_before = BfsSharingIndex::BuildCount();
  Result<std::unique_ptr<QueryEngine>> restored =
      QueryEngine::Create(graph, options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // Exactly one generation came into being across Create: the FromBlock
  // over the snapshot. A Build (a rebuild that samples L worlds per edge)
  // would be a second.
  EXPECT_EQ(BfsSharingIndex::BuildCount() - builds_before, 1u);
  EXPECT_TRUE(restored.value()->warm_restore_report().snapshot_restored);
  obs::MetricsRegistry& metrics = restored.value()->metrics();
  EXPECT_EQ(
      CounterValue(metrics, "persist_recovered_total", "source", "snapshot"),
      1u);
  EXPECT_EQ(
      CounterValue(metrics, "persist_recovered_total", "source", "rebuild"),
      0u);

  // The artifact the snapshot yields reads its words out of the mapping:
  // restore is O(1) in L and m, not a copy.
  Result<std::unique_ptr<PersistentStore>> store =
      PersistentStore::Open(dir.path(), nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  const SnapshotArtifacts artifacts =
      store.value()->OpenSnapshot(graph, options.factory);
  ASSERT_TRUE(artifacts.valid);
  ASSERT_NE(artifacts.bfs_index, nullptr);
  EXPECT_TRUE(artifacts.bfs_index->mapped());
}

TEST(PersistRestart, JournalFromOtherSeedIsSkippedNotServed) {
  ScratchDir dir("relcomp_persist_other_seed");
  const UncertainGraph graph = RandomSmallGraph(32, 120, 0.2, 0.8, 11);
  const std::vector<EngineQuery> queries = MixedWorkload();
  {
    EngineOptions options = PersistEngineOptions(dir.path(), 2);
    options.seed = 1;
    Result<std::unique_ptr<QueryEngine>> engine =
        QueryEngine::Create(graph, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(engine.value()->RunBatch(queries).ok());
    ASSERT_TRUE(engine.value()->FlushWarmState().ok());
  }
  // Same graph, different master seed: every journaled key re-derives
  // differently, so nothing may be folded back.
  EngineOptions options = PersistEngineOptions(dir.path(), 2);
  options.seed = 2;
  Result<std::unique_ptr<QueryEngine>> engine =
      QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto& report = engine.value()->warm_restore_report();
  EXPECT_EQ(report.result_entries, 0u);
  EXPECT_EQ(report.sweep_entries, 0u);
  EXPECT_GT(report.skipped, 0u);
  Result<std::vector<EngineResult>> results = engine.value()->RunBatch(queries);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_FALSE((*results)[0].cache_hit);
}

TEST(PersistRestart, JournalFromOtherGraphOrStrataIsSkippedNotServed) {
  // Seeds fold neither the graph nor S, so only the journal digest tells
  // these records apart from the restarted engine's own.
  const UncertainGraph graph = RandomSmallGraph(40, 160, 0.3, 0.8, 11);
  const UncertainGraph other = RandomSmallGraph(40, 160, 0.3, 0.8, 12);
  const std::vector<EngineQuery> queries = {EngineQuery::St(0, 7),
                                            EngineQuery::TopK(1, 5)};
  const auto options = [](const std::string& dir, uint32_t strata) {
    EngineOptions mc;
    mc.kind = EstimatorKind::kMonteCarlo;
    mc.num_threads = 2;
    mc.num_samples = 400;
    mc.num_strata = strata;
    mc.persist_dir = dir;
    mc.persist_flush_seconds = 0.0;
    return mc;
  };
  struct Restart {
    const char* name;
    const UncertainGraph* graph;
    uint32_t strata;
  };
  for (const Restart& restart :
       {Restart{"other graph", &other, 1}, Restart{"S = 4", &graph, 4}}) {
    SCOPED_TRACE(restart.name);
    ScratchDir dir("relcomp_persist_other_identity");
    {
      // Journals 2 results (st, top-k) and 1 sweep (source 1) at S = 1.
      Result<std::unique_ptr<QueryEngine>> engine =
          QueryEngine::Create(graph, options(dir.path(), 1));
      ASSERT_TRUE(engine.ok()) << engine.status();
      ASSERT_TRUE(engine.value()->RunBatch(queries).ok());
      ASSERT_TRUE(engine.value()->FlushWarmState().ok());
    }
    Result<std::unique_ptr<QueryEngine>> restarted = QueryEngine::Create(
        *restart.graph, options(dir.path(), restart.strata));
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    const auto& report = restarted.value()->warm_restore_report();
    EXPECT_EQ(report.result_entries, 0u);
    EXPECT_EQ(report.sweep_entries, 0u);
    EXPECT_EQ(report.skipped, 3u);
    Result<std::vector<EngineResult>> served =
        restarted.value()->RunBatch(queries);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_FALSE((*served)[0].cache_hit);

    Result<std::unique_ptr<QueryEngine>> fresh =
        QueryEngine::Create(*restart.graph, options("", restart.strata));
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    Result<std::vector<EngineResult>> reference =
        fresh.value()->RunBatch(queries);
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitIdentical((*reference)[i], (*served)[i]);
    }
  }
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
    EXPECT_FALSE(engine.value()->warm_restore_report().snapshot_restored);
  }
  FaultInjector::Global().Disable();
  // Next restart: no snapshot (the crashed publish never renamed), rebuild
  // again, auto-publish succeeds this time.
  Result<std::unique_ptr<QueryEngine>> engine =
      QueryEngine::Create(graph, PersistEngineOptions(dir.path(), 2));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_FALSE(engine.value()->warm_restore_report().snapshot_restored);
  ASSERT_TRUE(fs::exists(engine.value()->persist_store()->snapshot_path()));
  obs::MetricsRegistry& metrics = engine.value()->metrics();
  EXPECT_GE(metrics.GetCounter("persist_recovered_total", "source", "rebuild")
                ->Value(),
            1u);
}

}  // namespace
}  // namespace relcomp
