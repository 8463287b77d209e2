#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fault_injection.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/wire.h"
#include "persist/journal.h"

namespace relcomp {

namespace {
/// Domain separator so the PrepareForNextQuery seed never equals the
/// Estimate seed for the same query.
constexpr uint64_t kPrepareSeedTag = 0x707265ULL;  // "pre"
/// Domain separator for per-source sweep seeds, so a sweep seed can never
/// alias an st/distance query seed structurally.
constexpr uint64_t kSweepSeedTag = 0x73776570ULL;  // "swep"

/// Result-cache shards: concurrent lookups of different keys mostly take
/// different locks.
constexpr size_t kResultCacheShards = 8;
/// Prebuilder threads: several distinct prepare seeds are resampled at once,
/// each still built exactly once, closest to dispatch first.
constexpr size_t kPrebuildThreads = 2;
/// Most-frequent sources the scout pass warms per batch; a source must
/// appear at least twice to be worth a scout task.
constexpr size_t kScoutMaxSources = 4;

/// True when `status` is the deadline/cancellation family — the failures
/// that also count in engine_deadline_exceeded_total.
bool IsCancellation(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

/// Scoped pipeline-stage recorder: always lands the elapsed nanoseconds in
/// the stage histogram (when given), and additionally opens a matching span
/// when the query is traced — one timestamp pair feeds both, so the span
/// tree and the histogram never disagree about a stage's extent.
class StageTimer {
 public:
  StageTimer(obs::Histogram* histogram, obs::TraceBuffer* trace,
             obs::SpanKind kind, uint32_t parent, uint32_t detail = 0)
      : histogram_(histogram),
        trace_(trace),
        begin_ns_(StopwatchNs::Now()),
        span_(trace == nullptr
                  ? obs::TraceBuffer::kNone
                  : trace->BeginAt(kind, begin_ns_, parent, detail)) {}

  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Ends the stage early (idempotent; the destructor calls it).
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    const uint64_t end_ns = StopwatchNs::Now();
    if (histogram_ != nullptr) histogram_->Record(end_ns - begin_ns_);
    if (trace_ != nullptr) trace_->EndAt(span_, end_ns);
  }

  /// Id for nesting children under this stage's span (kNone when untraced).
  uint32_t id() const { return span_; }

 private:
  obs::Histogram* histogram_;
  obs::TraceBuffer* trace_;
  uint64_t begin_ns_;
  uint32_t span_;
  bool stopped_ = false;
};

/// \name Warm-journal record payloads (see src/persist/README.md)
/// Every record opens with the writing engine's WarmJournalDigest (graph,
/// index configuration, S) and carries everything needed to re-derive its
/// cache key on restore; the restoring engine checks the digest and the
/// kind / budget / seed against *its own* and skips mismatches, so a journal
/// written for another graph or configuration (or another master seed) can
/// never resurface a wrong answer. Records carry no TTL: only immortal
/// entries are exported. Decoders return false on any truncation or shape
/// violation.
/// @{
std::string EncodeSweepRecord(uint64_t digest,
                              const SweepCache::Export& entry) {
  std::string out;
  WireWriter writer(&out);
  writer.PutU64(digest);
  writer.PutU8(static_cast<uint8_t>(entry.key.kind));
  writer.PutU32(entry.key.source);
  writer.PutU32(entry.key.num_samples);
  writer.PutU64(entry.key.seed);
  writer.PutU64(entry.value->size());
  for (const double v : *entry.value) writer.PutF64(v);
  return out;
}

bool DecodeSweepRecord(const std::string& payload, uint64_t* digest,
                       SweepCacheKey* key, std::vector<double>* sweep) {
  WireReader reader(payload.data(), payload.size());
  uint8_t kind = 0;
  uint64_t n = 0;
  if (!reader.ReadU64(digest) || !reader.ReadU8(&kind) ||
      !reader.ReadU32(&key->source) ||
      !reader.ReadU32(&key->num_samples) || !reader.ReadU64(&key->seed) ||
      !reader.ReadU64(&n)) {
    return false;
  }
  key->kind = static_cast<EstimatorKind>(kind);
  if (n != reader.remaining() / sizeof(double) ||
      reader.remaining() % sizeof(double) != 0) {
    return false;
  }
  sweep->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!reader.ReadF64(&(*sweep)[i])) return false;
  }
  return true;
}

std::string EncodeResultRecord(uint64_t digest,
                               const ResultCache::Export& entry) {
  std::string out;
  WireWriter writer(&out);
  const EngineQuery& q = entry.key.query;
  writer.PutU64(digest);
  writer.PutU8(static_cast<uint8_t>(q.workload));
  writer.PutU32(q.source);
  writer.PutU32(q.target);
  writer.PutU32(q.k);
  writer.PutF64(q.eta);
  writer.PutU32(q.max_hops);
  writer.PutU8(static_cast<uint8_t>(entry.key.kind));
  writer.PutU32(entry.key.num_samples);
  writer.PutU64(entry.key.seed);
  writer.PutF64(entry.value.reliability);
  writer.PutU32(entry.value.num_samples);
  writer.PutU64(entry.value.targets.size());
  for (const ReliableTarget& target : entry.value.targets) {
    writer.PutU32(target.node);
    writer.PutF64(target.reliability);
  }
  return out;
}

bool DecodeResultRecord(const std::string& payload, uint64_t* digest,
                        ResultCacheKey* key, ResultCacheValue* value) {
  WireReader reader(payload.data(), payload.size());
  uint8_t workload = 0;
  uint8_t kind = 0;
  uint64_t num_targets = 0;
  if (!reader.ReadU64(digest) || !reader.ReadU8(&workload) ||
      !reader.ReadU32(&key->query.source) ||
      !reader.ReadU32(&key->query.target) || !reader.ReadU32(&key->query.k) ||
      !reader.ReadF64(&key->query.eta) ||
      !reader.ReadU32(&key->query.max_hops) || !reader.ReadU8(&kind) ||
      !reader.ReadU32(&key->num_samples) || !reader.ReadU64(&key->seed) ||
      !reader.ReadF64(&value->reliability) ||
      !reader.ReadU32(&value->num_samples) || !reader.ReadU64(&num_targets)) {
    return false;
  }
  if (workload >= kNumWorkloadKinds) return false;
  key->query.workload = static_cast<WorkloadKind>(workload);
  key->kind = static_cast<EstimatorKind>(kind);
  constexpr size_t kTargetBytes = sizeof(uint32_t) + sizeof(double);
  if (num_targets != reader.remaining() / kTargetBytes ||
      reader.remaining() % kTargetBytes != 0) {
    return false;
  }
  value->targets.resize(num_targets);
  for (uint64_t i = 0; i < num_targets; ++i) {
    if (!reader.ReadU32(&value->targets[i].node) ||
        !reader.ReadF64(&value->targets[i].reliability)) {
      return false;
    }
  }
  return true;
}
/// @}
}  // namespace

QueryEngine::QueryEngine(const UncertainGraph& graph, EngineOptions options,
                         std::unique_ptr<obs::MetricsRegistry> registry,
                         std::unique_ptr<PersistentStore> store,
                         std::vector<std::unique_ptr<Estimator>> replicas)
    : graph_(graph),
      options_(std::move(options)),
      registry_(std::move(registry)),
      tracer_(std::make_unique<obs::Tracer>(obs::TracerOptions{
          options_.trace_sample_rate, options_.slow_query_ms})),
      store_(std::move(store)),
      replicas_(std::move(replicas)),
      stats_(*registry_),
      journal_digest_(store_ == nullptr
                          ? 0
                          : WarmJournalDigest(graph_, options_.factory,
                                              options_.num_strata)) {
  sweep_capable_ =
      !replicas_.empty() && replicas_.front()->capabilities().sweep;
  stage_cache_probe_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "cache_probe");
  stage_prepare_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "prepare");
  stage_stratum_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "stratum");
  stage_merge_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "merge");
  stage_publish_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "publish");
  stage_derive_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "derive");
  stage_sweep_wait_ =
      registry_->GetHistogram("engine_stage_latency_ns", "stage", "sweep_wait");
  if (options_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(
        options_.cache_capacity, kResultCacheShards, options_.cache_max_bytes,
        registry_.get());
  }
  if (options_.enable_sweep_cache) {
    sweep_cache_ = std::make_unique<SweepCache>(
        SweepCache::kNoEntryLimit, /*num_shards=*/1,
        options_.sweep_cache_max_bytes, registry_.get());
  }
  if (options_.enable_generation_prebuild && !replicas_.empty() &&
      replicas_.front()->capabilities().prepared_generations) {
    prebuilder_ = std::make_unique<GenerationPrebuilder>(
        *replicas_.front(), *registry_, options_.prebuild_max_pending,
        kPrebuildThreads, options_.prebuild_max_bytes);
  }
  pool_ = std::make_unique<ThreadPool>(
      options_.num_threads, options_.queue_capacity,
      registry_->GetHistogram("engine_stage_latency_ns", "stage",
                              "queue_wait"));
  if (store_ != nullptr && options_.persist_flush_seconds > 0.0) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
  // Storage-footprint gauges: actual resident bytes of the graph's selected
  // layout, labeled by layout so raw/compact engines are comparable side by
  // side in one exported snapshot.
  registry_->GetGauge("graph_memory_bytes")
      ->Set(static_cast<double>(graph_.MemoryBytes()));
  registry_
      ->GetGauge("graph_bytes_per_edge", "layout",
                 StorageLayoutName(graph_.layout()))
      ->Set(graph_.num_edges() == 0
                ? 0.0
                : static_cast<double>(graph_.MemoryBytes()) /
                      static_cast<double>(graph_.num_edges()));
}

QueryEngine::~QueryEngine() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flusher_mutex_);
      flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  pool_->Shutdown();
  // Clean-shutdown flush: the pool is quiescent, so this captures the
  // final warm state (a crash instead simply loses what the last periodic
  // flush missed — never more).
  if (store_ != nullptr) (void)FlushWarmState();
  // Join the builder thread before any replica (its build prototype) dies.
  prebuilder_.reset();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const UncertainGraph& graph, const EngineOptions& options) {
  EngineOptions opts = options;
  if (opts.num_threads == 0) opts.num_threads = 1;
  if (opts.num_strata == 0) opts.num_strata = 1;
  if (opts.num_samples == 0) {
    return Status::InvalidArgument("EngineOptions::num_samples must be > 0");
  }
  if (opts.negative_cache_ttl < 0.0) {
    return Status::InvalidArgument(
        "EngineOptions::negative_cache_ttl must be >= 0");
  }
  // The registry exists before anything else so the persistence tier's
  // recovery counters capture the snapshot restore that happens *before*
  // the engine object does.
  auto registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<PersistentStore> store;
  bool snapshot_restored = false;
  if (!opts.persist_dir.empty()) {
    RELCOMP_ASSIGN_OR_RETURN(store,
                             PersistentStore::Open(opts.persist_dir,
                                                   registry.get()));
    // O(1) cold start: hand the factory the snapshot's artifacts so the
    // replica build below maps instead of rebuilding. An absent, corrupt,
    // version-refused, or mismatched snapshot leaves these null — the
    // factory then rebuilds from source, bit-identically.
    SnapshotArtifacts artifacts = store->OpenSnapshot(graph, opts.factory);
    if (artifacts.valid) {
      opts.factory.preloaded_bfs_index = std::move(artifacts.bfs_index);
      opts.factory.preloaded_prob_tree = std::move(artifacts.prob_tree);
      snapshot_restored = true;
    } else {
      store->CountRebuild();
    }
  }
  // One shared immutable index for all replicas of an index-carrying kind
  // (built inside the factory), private scratch per replica.
  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<Estimator>> replicas,
      MakeEstimatorReplicas(opts.kind, graph, opts.num_threads, opts.factory));
  // The preloaded artifacts were consumed by the replica build; the engine
  // keeps its options free of them (they pin the snapshot mapping).
  opts.factory.preloaded_bfs_index.reset();
  opts.factory.preloaded_prob_tree.reset();
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(graph, std::move(opts), std::move(registry),
                      std::move(store), std::move(replicas)));
  if (engine->store_ != nullptr) {
    engine->warm_report_.snapshot_restored = snapshot_restored;
    if (!snapshot_restored) {
      // Best effort: a failed snapshot write (disk full, injected fault)
      // only costs the next restart its O(1) cold start.
      (void)engine->PersistSnapshot();
    }
    engine->RestoreWarmState();
  }
  return engine;
}

void QueryEngine::FlusherLoop() {
  std::unique_lock<std::mutex> lock(flusher_mutex_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.persist_flush_seconds));
    if (flusher_stop_) break;
    // The flush runs on this thread, so it never takes a serving worker.
    lock.unlock();
    (void)FlushWarmState();
    lock.lock();
  }
}

Status QueryEngine::PersistSnapshot() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  const BfsSharingIndex* bfs_index = nullptr;
  const ProbTreeIndex* prob_tree = nullptr;
  if (const auto* bfs =
          dynamic_cast<const BfsSharingEstimator*>(replicas_.front().get())) {
    bfs_index = bfs->shared_index().get();
  }
  if (const auto* pt =
          dynamic_cast<const ProbTreeEstimator*>(replicas_.front().get())) {
    prob_tree = pt->shared_index().get();
  }
  return store_->WriteSnapshot(graph_, options_.factory, bfs_index, prob_tree);
}

Status QueryEngine::FlushWarmState() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("persistence is not configured");
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  size_t appended = 0;
  if (sweep_cache_ != nullptr) {
    for (const SweepCache::Export& entry : sweep_cache_->ExportEntries()) {
      if (!journaled_sweeps_.insert(entry.key.Hash()).second) continue;
      RELCOMP_RETURN_NOT_OK(
          store_->AppendWarm(kJournalRecordSweep,
                             EncodeSweepRecord(journal_digest_, entry)));
      ++appended;
    }
  }
  if (cache_ != nullptr) {
    for (const ResultCache::Export& entry : cache_->ExportEntries()) {
      if (!journaled_results_.insert(entry.key.Hash()).second) continue;
      RELCOMP_RETURN_NOT_OK(
          store_->AppendWarm(kJournalRecordResult,
                             EncodeResultRecord(journal_digest_, entry)));
      ++appended;
    }
  }
  if (appended == 0) return Status::OK();
  return store_->SyncJournal();
}

void QueryEngine::RestoreWarmState() {
  Result<JournalReplay> replayed = store_->ReplayWarm();
  if (!replayed.ok()) return;  // unreadable journal: cold caches, not fatal
  const JournalReplay replay = replayed.MoveValue();
  warm_report_.torn_tail = replay.torn_tail;
  uint64_t recovered = 0;
  uint64_t digest = 0;
  for (const JournalRecord& record : replay.records) {
    if (record.type == kJournalRecordSweep && sweep_cache_ != nullptr) {
      SweepCacheKey key;
      auto sweep = std::make_shared<std::vector<double>>();
      // A record journaled for another graph, index configuration or S
      // carries another digest; one under another kind, budget or master
      // seed re-derives to another key. Either is skipped — never served.
      if (!DecodeSweepRecord(record.payload, &digest, &key, sweep.get()) ||
          digest != journal_digest_ || key.source >= graph_.num_nodes() ||
          sweep->size() != graph_.num_nodes() ||
          !(key == SweepKeyFor(key.source))) {
        ++warm_report_.skipped;
        continue;
      }
      sweep_cache_->Insert(key, std::move(sweep));
      ++warm_report_.sweep_entries;
      ++recovered;
    } else if (record.type == kJournalRecordResult && cache_ != nullptr) {
      ResultCacheKey key;
      ResultCacheValue value;
      if (!DecodeResultRecord(record.payload, &digest, &key, &value) ||
          digest != journal_digest_ ||
          !ValidateWorkload(graph_, key.query).ok() ||
          !(key == ResultKeyFor(key.query))) {
        ++warm_report_.skipped;
        continue;
      }
      cache_->Insert(key, value);
      ++warm_report_.result_entries;
      ++recovered;
    } else {
      // An unknown type, such as the retired ids 1 and 2, whose layout
      // carried a TTL field.
      ++warm_report_.skipped;
    }
  }
  if (recovered > 0) store_->CountJournalRecovered(recovered);
  // The restored state is folded back in; truncate so the next flush
  // re-journals it fresh (the journaled-key sets start empty, so the first
  // flush after restore rewrites every live entry).
  (void)store_->ResetJournal();
}

uint64_t QueryEngine::QuerySeed(const EngineQuery& query) const {
  // Content-derived, not index-derived: the seed depends on what is asked,
  // never on when or where it runs. Repeats of a query inside one engine get
  // the same seed (and thus the same answer), which is exactly what makes a
  // cache hit — or a coalesced in-flight share — indistinguishable from a
  // recomputation.
  //
  // Sweep kinds deliberately coarsen "what is asked" to the source: top-k
  // and reliable-set answers are derived views of one per-source sweep, so
  // their seeds fold (source, kind, num_samples) but NOT k, eta, or the
  // workload tag. That is what lets top-k(s, 5), top-k(s, 10) and
  // reliable-set(s, eta) share one EstimateFromSource — and it keeps the
  // standalone-API equivalence exact, because the standalone helpers given
  // this seed run the identical sweep. num_strata is not folded: it splits
  // the budget, and the seed it splits is the same.
  if (IsSweepWorkload(query.workload)) return SweepSeed(query.source);
  uint64_t seed = HashWorkloadQuery(options_.seed, query);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(options_.kind));
  return HashCombineSeed(seed, options_.num_samples);
}

uint64_t QueryEngine::SweepSeed(NodeId source) const {
  uint64_t seed = HashCombineSeed(options_.seed, kSweepSeedTag);
  seed = HashCombineSeed(seed, source);
  seed = HashCombineSeed(seed, static_cast<uint64_t>(options_.kind));
  return HashCombineSeed(seed, options_.num_samples);
}

uint64_t QueryEngine::PrepareSeed(const EngineQuery& query) const {
  return HashCombineSeed(QuerySeed(query), kPrepareSeedTag);
}

ResultCacheKey QueryEngine::ResultKeyFor(const EngineQuery& query) const {
  return ResultCacheKey{query, options_.kind, options_.num_samples,
                        QuerySeed(query)};
}

SweepCacheKey QueryEngine::SweepKeyFor(NodeId source) const {
  return SweepCacheKey{options_.kind, source, options_.num_samples,
                       SweepSeed(source)};
}

IndexMemoryReport QueryEngine::IndexMemory() const {
  IndexMemoryReport report = ReportIndexMemory(replicas_);
  // Ready-but-unadopted prebuilt generations are index-sized residents too.
  if (prebuilder_ != nullptr) report.prebuilt_bytes = prebuilder_->ReadyBytes();
  return report;
}

void QueryEngine::AwaitCall(CallState& state) {
  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state] { return state.pending == 0; });
}

void QueryEngine::FillFromValue(ResultCacheValue value, EngineResult* slot) {
  slot->status = std::move(value.status);
  if (slot->status.ok()) {
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = std::move(value.targets);
  }
}

bool QueryEngine::TryServeWithoutCompute(
    const ResultCacheKey& key, EngineResult* slot,
    std::shared_ptr<QueryFlight>* leader_flight, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Fast path: lock-free-ish cache probe before touching the flight table.
  // Deliberately NOT gated on the cancel token: a cache hit costs O(1) and
  // an already-computed answer is strictly more useful than a deadline
  // error, even to a late caller.
  if (cache_ != nullptr) {
    std::optional<ResultCacheValue> hit;
    {
      StageTimer probe(stage_cache_probe_, trace, obs::SpanKind::kCacheProbe,
                       parent, /*detail=*/0);
      hit = cache_->Lookup(key);
    }
    if (hit) {
      const bool negative = hit->negative();
      FillFromValue(std::move(*hit), slot);
      slot->seconds = 0.0;
      slot->cache_hit = true;
      if (negative) {
        // Failure backoff: the cached error is served without recomputing.
        // Counted as a failure (and as a cache negative_hit), never as a
        // cache hit — executed + coalesced + failures + cache.hits must
        // still equal queries.
        stats_.RecordFailure(0.0);
      } else {
        stats_.RecordCacheHit();
      }
      return true;
    }
  }
  if (!options_.enable_coalescing) return false;

  auto joined = query_flights_.JoinOrCreate(key, cache_.get());
  if (joined.cached) {
    // The leader finished between our fast-path miss and the re-probe: this
    // query shared a twin's computation. Accounted as *coalesced*, not a
    // cache hit — the fast-path miss is already in the cache stats, and
    // executed + coalesced + failures + cache.hits must equal queries.
    const bool negative = joined.cached->negative();
    FillFromValue(std::move(*joined.cached), slot);
    slot->seconds = 0.0;
    slot->coalesced = true;
    if (negative) {
      stats_.RecordFailure(0.0);
    } else {
      stats_.RecordCoalesced(0.0);
    }
    return true;
  }
  if (joined.leader) {
    *leader_flight = std::move(joined.flight);
    return false;  // we are the leader; compute and FinishFlight
  }

  // Follower: wait for the leader and copy its outcome. A follower whose
  // token trips stops waiting and fails with the token's status; the
  // leader's flight completes normally for everyone else.
  Timer wait_timer;
  bool ready = false;
  {
    obs::ScopedSpan wait_span(trace, obs::SpanKind::kCoalescedWait, parent);
    ready = query_flights_.Await(*joined.flight, cancel);
  }
  slot->seconds = wait_timer.ElapsedSeconds();
  if (!ready) {
    // Not coalesced: this query shared nothing — it gave up. Transient
    // status, so nothing here is negative-cached (the leader's own publish
    // is independent and unaffected).
    slot->status = cancel->ToStatus();
    stats_.RecordFailure(slot->seconds);
    stats_.RecordDeadlineExceeded();
    return true;
  }
  FillFromValue(joined.flight->value, slot);
  slot->coalesced = true;
  if (slot->status.ok()) {
    stats_.RecordCoalesced(slot->seconds);
  } else {
    stats_.RecordFailure(slot->seconds);
    // The leader's deadline expired before computing: its waiters failed on
    // the same deadline, and the classifier must agree with theirs.
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  return true;
}

void QueryEngine::PublishToCache(const ResultCacheKey& key,
                                 const ResultCacheValue& value) {
  if (cache_ == nullptr) return;
  if (value.status.ok()) {
    cache_->Insert(key, value);
  } else if (options_.negative_cache_ttl > 0.0 &&
             !IsTransientStatusCode(value.status.code())) {
    // Transient outcomes (deadline exceeded, cancelled, shed) describe the
    // submission, not the answer — caching them would fail future queries
    // that carry no deadline at all. Only genuine per-query failures
    // (invalid argument, not supported, internal) are negative-cached.
    // Negative caching: keep only the status (the payload is meaningless),
    // under the short backoff TTL so the key retries after it elapses.
    ResultCacheValue negative;
    negative.status = value.status;
    cache_->Insert(key, negative, options_.negative_cache_ttl);
  }
}

void QueryEngine::FinishFlight(const ResultCacheKey& key, QueryFlight& flight,
                               const ResultCacheValue& value) {
  query_flights_.Finish(
      key, flight, [&] { PublishToCache(key, value); },
      [&](QueryFlight& settled) { settled.value = value; });
}

void QueryEngine::RequestPrebuild(const EngineQuery& query) {
  // A query the caches will serve never prepares a replica at all — building
  // its generation would be pure waste (and would strand index-sized memory
  // in the builder's ready pool).
  if (ServableFromCache(query)) return;
  prebuilder_->Request(PrepareSeed(query));
}

Status QueryEngine::PrepareReplica(
    Estimator& estimator, uint64_t prepare_seed,
    std::shared_ptr<const PreparedGeneration> generation) {
  if (estimator.capabilities().prepared_generations) {
    const bool prebuilt = generation == nullptr;
    if (prebuilt && prebuilder_ != nullptr) {
      generation = prebuilder_->Take(prepare_seed);
    }
    if (generation != nullptr &&
        estimator.AdoptPreparedGeneration(std::move(generation)).ok()) {
      if (prebuilt) stats_.RecordPrebuiltUsed();
      return Status::OK();
    }
    // Nothing to adopt, or adoption refused (shape mismatch — cannot happen
    // for replicas of this engine): the inline prepare is bit-identical.
  }
  return estimator.PrepareForNextQuery(prepare_seed);
}

Result<QueryEngine::SweepShare> QueryEngine::ComputeSweepSerial(
    size_t worker_id, const SweepCacheKey& key, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Coalescing-off path: one worker runs the whole stratified sweep
  // back-to-back. EstimateFromSource with the engine's num_strata merges
  // strata in index order — the exact merge the stratum scheduler replays —
  // so serial and stolen-strata execution are bit-identical.
  Estimator& estimator = *replicas_[worker_id];
  const uint64_t sweep_seed = key.seed;
  MemoryTracker tracker;
  Timer timer;
  stats_.RecordSweepExecuted();
  FaultInjector& injector = FaultInjector::Global();
  if (injector.enabled()) {
    injector.MaybeDelay(sweep_seed);
    RELCOMP_RETURN_NOT_OK(injector.MaybeFail(FaultSite::kEstimatorFailure,
                                             sweep_seed, "serial sweep"));
  }
  {
    StageTimer prepare(stage_prepare_, trace, obs::SpanKind::kPrepare, parent);
    RELCOMP_RETURN_NOT_OK(PrepareReplica(
        estimator, HashCombineSeed(sweep_seed, kPrepareSeedTag)));
  }
  EstimateOptions estimate_options;
  estimate_options.num_samples = options_.num_samples;
  estimate_options.seed = sweep_seed;
  estimate_options.num_strata = options_.num_strata;
  estimate_options.memory = &tracker;
  estimate_options.cancel = cancel;
  estimate_options.trace = trace;
  estimate_options.trace_parent = parent;
  RELCOMP_ASSIGN_OR_RETURN(
      std::vector<double> swept,
      estimator.EstimateFromSource(key.source, estimate_options));
  auto vector = std::make_shared<const std::vector<double>>(std::move(swept));
  if (sweep_cache_ != nullptr) sweep_cache_->Insert(key, vector);
  stats_.RecordSweepLatency(timer.ElapsedSeconds());
  SweepShare share;
  share.vector = std::move(vector);
  share.peak_memory_bytes = tracker.peak_bytes();
  return share;
}

Status QueryEngine::RunSweepFlight(size_t worker_id, const SweepCacheKey& key,
                                   const std::shared_ptr<SweepFlight>& flight,
                                   bool leader, const CancelToken* cancel,
                                   obs::TraceBuffer* trace, uint32_t parent) {
  Estimator& estimator = *replicas_[worker_id];
  const uint64_t sweep_seed = key.seed;
  FaultInjector& injector = FaultInjector::Global();
  MemoryTracker tracker;
  bool prepared = false;
  bool abandoned = false;
  // Claim loop: leader and coalesced joiners alike pull unclaimed strata off
  // the shared work-list. Each stratum is a pure function of (sweep seed,
  // stratum index, S), so it does not matter who runs what.
  for (;;) {
    uint32_t stratum = 0;
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      if (cancel != nullptr && cancel->Cancelled() && flight->status.ok() &&
          !flight->ready) {
        // This participant's deadline fired mid-flight. If it is the only
        // participant and strata remain unclaimed, nobody else will drain
        // the flight: fail it as a unit (first failure wins; joiners get the
        // transient status and recompute deterministically later). If other
        // participants are active — or every stratum is already claimed —
        // the flight can finish without us: abandon it, leaving its state
        // untouched, and fail only this query.
        if (flight->active == 0 && flight->next_stratum < flight->num_strata) {
          flight->status = cancel->ToStatus();
        } else {
          abandoned = true;
        }
        break;
      }
      if (!flight->status.ok() ||
          flight->next_stratum >= flight->num_strata) {
        break;
      }
      stratum = flight->next_stratum++;
      ++flight->active;
    }
    Status run = Status::OK();
    if (injector.enabled()) {
      // Content-derived injection key: the stratum's own seed, identical at
      // any thread count and for any claimant, so the set of injected
      // strata is deterministic per sweep.
      const uint64_t stratum_key =
          StratumSeed(sweep_seed, stratum, flight->num_strata);
      injector.MaybeDelay(stratum_key);
      run = injector.MaybeFail(FaultSite::kEstimatorFailure, stratum_key,
                               "sweep stratum");
    }
    if (run.ok() && !prepared) {
      // H(sweep_seed, tag) == PrepareSeed(q) for every sweep-kind q over
      // this source — the derivation RequestPrebuild also uses, so prebuilt
      // generations match. Every participant ends up reading bit-identical
      // worlds: the first preparer pays the full prepare (adopting a
      // prebuilt generation when one is ready) and hands its generation to
      // the flight; later thieves adopt it in O(1) instead of re-running the
      // same O(L·m) resample per worker (MC, whose prepare is a no-op, has
      // no generations and just prepares directly).
      StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                               parent);
      std::shared_ptr<const PreparedGeneration> generation;
      {
        std::lock_guard<std::mutex> lock(flight->mutex);
        generation = flight->generation;
      }
      const bool first_preparer = generation == nullptr;
      run = PrepareReplica(estimator,
                           HashCombineSeed(sweep_seed, kPrepareSeedTag),
                           std::move(generation));
      if (run.ok() && first_preparer &&
          estimator.capabilities().prepared_generations) {
        Result<std::shared_ptr<const PreparedGeneration>> current =
            estimator.CurrentPreparedGeneration();
        std::lock_guard<std::mutex> lock(flight->mutex);
        if (current.ok() && flight->generation == nullptr) {
          flight->generation = current.MoveValue();
        }
      }
      prepared = run.ok();
    }
    std::vector<uint32_t> hits;
    if (run.ok()) {
      StageTimer stratum_stage(stage_stratum_, trace, obs::SpanKind::kStratum,
                               parent, stratum);
      EstimateOptions estimate_options;
      estimate_options.num_samples = flight->num_samples;
      estimate_options.seed = sweep_seed;
      estimate_options.num_strata = flight->num_strata;
      estimate_options.memory = &tracker;
      estimate_options.cancel = cancel;
      estimate_options.trace = trace;
      estimate_options.trace_parent = stratum_stage.id();
      Result<std::vector<uint32_t>> stratum_hits =
          estimator.EstimateSweepStratumHits(key.source, stratum,
                                             flight->num_strata,
                                             estimate_options);
      if (stratum_hits.ok()) {
        hits = stratum_hits.MoveValue();
      } else {
        run = stratum_hits.status();
      }
    }
    stats_.RecordStratum(/*stolen=*/!leader);
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      --flight->active;
      ++flight->completed;
      if (run.ok()) {
        flight->stratum_hits[stratum] = std::move(hits);
        if (tracker.peak_bytes() > flight->peak_memory_bytes) {
          flight->peak_memory_bytes = tracker.peak_bytes();
        }
      } else if (flight->status.ok()) {
        // First failure wins; it also stops further claims, so the flight
        // drains to a deterministic failure for every participant.
        flight->status = run;
      }
    }
    if (!run.ok()) break;
  }

  if (abandoned) {
    // The flight can drain without us (someone else is active, or every
    // stratum is claimed): leave it untouched — its eventual finalizer
    // publishes for the remaining participants — and fail only this query.
    // Deliberately skips the finalize check below: an abandoning
    // participant taking the finalizing token and then returning would
    // strand the real participants waiting forever.
    return cancel->ToStatus();
  }

  // Whoever observes the flight drained — all strata deposited, or failed
  // with no stratum still in execution — finalizes: merges, publishes, and
  // wakes everyone. That may be the leader or any thief; the merge itself is
  // order-fixed, so the finalizer's identity is invisible in the result.
  SweepVector vector;
  Status status;
  bool finalize = false;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    const bool drained =
        flight->active == 0 &&
        (!flight->status.ok() || flight->completed == flight->num_strata);
    if (drained && !flight->ready && !flight->finalizing) {
      flight->finalizing = true;
      finalize = true;
      status = flight->status;
      if (status.ok()) {
        // Deterministic merge in stratum order: per-node hit totals over the
        // fixed stratum slices, divided by the full budget K — bit-identical
        // to the serial stratified sweep regardless of which workers ran
        // which strata.
        StageTimer merge_stage(stage_merge_, trace, obs::SpanKind::kMerge,
                               parent);
        auto merged =
            std::make_shared<std::vector<double>>(graph_.num_nodes(), 0.0);
        std::vector<uint32_t> totals(graph_.num_nodes(), 0);
        for (const std::vector<uint32_t>& stratum_hits :
             flight->stratum_hits) {
          for (size_t v = 0; v < stratum_hits.size(); ++v) {
            totals[v] += stratum_hits[v];
          }
        }
        const double k = static_cast<double>(flight->num_samples);
        for (size_t v = 0; v < totals.size(); ++v) {
          (*merged)[v] = static_cast<double>(totals[v]) / k;
        }
        vector = std::move(merged);
      }
    }
  }
  if (finalize) {
    // Sweeps are published immortal and leave the SweepCache only by
    // byte-budget LRU eviction.
    sweep_flights_.Finish(
        key, *flight,
        [&] {
          if (status.ok() && sweep_cache_ != nullptr) {
            sweep_cache_->Insert(key, vector);
          }
          stats_.RecordSweepLatency(flight->timer.ElapsedSeconds());
        },
        [&](SweepFlight& settled) {
          settled.vector = std::move(vector);
          settled.generation.reset();
        });
    return Status::OK();
  }
  // Not the finalizer: some other participant is still executing a stratum
  // (or merging); wait for the publish. This terminates — the flight always
  // has at least one active participant until ready. A participant whose
  // token trips abandons the flight (same contract as above: the flight
  // itself is untouched).
  StageTimer wait_stage(stage_sweep_wait_, trace, obs::SpanKind::kSweepWait,
                        parent);
  if (!sweep_flights_.Await(*flight, cancel)) return cancel->ToStatus();
  return Status::OK();
}

Result<QueryEngine::SweepShare> QueryEngine::GetSweepVector(
    size_t worker_id, const SweepCacheKey& key, const CancelToken* cancel,
    obs::TraceBuffer* trace, uint32_t parent) {
  // Fast path: memoized sweep.
  if (sweep_cache_ != nullptr) {
    std::optional<SweepVector> hit;
    {
      StageTimer probe_stage(stage_cache_probe_, trace,
                             obs::SpanKind::kCacheProbe, parent, /*detail=*/1);
      hit = sweep_cache_->Lookup(key);
    }
    if (hit) {
      stats_.RecordSweepHit();
      return SweepShare{std::move(*hit), 0};
    }
  }
  if (!options_.enable_coalescing) {
    return ComputeSweepSerial(worker_id, key, cancel, trace, parent);
  }
  auto joined = sweep_flights_.JoinOrCreate(
      key, sweep_cache_.get(), options_.num_strata, options_.num_samples);
  if (joined.cached) {
    // The sweep finished between our fast-path miss and the re-probe: this
    // query shared its work (accounted as sweep_coalesced, not a hit — the
    // fast-path miss is already in the cache stats).
    stats_.RecordSweepCoalesced();
    return SweepShare{std::move(*joined.cached), 0};
  }
  const std::shared_ptr<SweepFlight>& flight = joined.flight;
  const bool leader = joined.leader;
  // One sweep_executed per sweep, recorded by its leader: the "<= 1
  // EstimateFromSource per distinct (source, generation)" gate currency.
  if (leader) stats_.RecordSweepExecuted();
  {
    obs::ScopedSpan flight_span(trace, obs::SpanKind::kSweepFlight, parent,
                                leader ? 1 : 0);
    const Status flight_status =
        RunSweepFlight(worker_id, key, flight, leader, cancel, trace,
                       flight_span.id());
    // Abandoned mid-flight (deadline): the flight publishes without us; do
    // not read its fields — fail this query with the transient status.
    if (!flight_status.ok()) return flight_status;
  }

  Status status;
  SweepVector vector;
  size_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    status = flight->status;
    vector = flight->vector;
    // Every participant derived from this sweep: attribute its working-set
    // peak to each of them (scout-led sweeps would otherwise attribute it
    // to no query at all).
    peak = flight->peak_memory_bytes;
  }
  if (!status.ok()) return status;
  if (!leader) {
    // A joiner — whether it stole strata or only waited — shared the
    // leader's sweep instead of running its own.
    stats_.RecordSweepCoalesced();
  }
  return SweepShare{std::move(vector), peak};
}

void QueryEngine::ScoutSweep(size_t worker_id, NodeId source) {
  const SweepCacheKey key = SweepKeyFor(source);
  if (sweep_cache_ == nullptr || sweep_cache_->Contains(key)) return;
  auto joined = sweep_flights_.JoinOrCreate(
      key, sweep_cache_.get(), options_.num_strata, options_.num_samples);
  // Nothing to warm unless this scout won the flight outright: a memoized
  // sweep needs no warming and an open flight already has a leader.
  if (!joined.leader) return;
  // The scout IS this sweep's leader — same seed, same strata, same
  // single-flight entry the queries join (and steal from). It counts in
  // sweep_executed (the invocation currency) and in scout_warms (the
  // classifier that keeps the query-partition arithmetic honest). A failed
  // scout sweep fails exactly as a query-led sweep would; the flight hands
  // the error to any queries that joined, and the error is re-raised
  // deterministically on recompute.
  stats_.RecordSweepExecuted();
  stats_.RecordScoutWarm();
  // A scout sweep has no query behind it, so it gets its own trace root
  // (kScout) when tracing is engaged; the strata it runs nest under it
  // exactly like a query-led sweep's.
  obs::TraceBuffer buffer;
  obs::TraceBuffer* trace = nullptr;
  uint32_t root = obs::TraceBuffer::kNone;
  if (tracer_->engaged()) {
    trace = &buffer;
    buffer.Start(tracer_->NextQueryId(), static_cast<uint32_t>(worker_id));
    root = buffer.Begin(obs::SpanKind::kScout);
  }
  // A scout carries no deadline (cancel=nullptr) and always drains its
  // flight, so the OK status is discardable: failures live in the flight.
  (void)RunSweepFlight(worker_id, key, joined.flight, /*leader=*/true,
                       /*cancel=*/nullptr, trace, root);
  if (trace != nullptr) {
    buffer.End(root);
    tracer_->Finish(buffer);
  }
}

void QueryEngine::ScoutBatch(const std::vector<EngineQuery>& queries) {
  if (!ScoutingEnabled()) return;
  std::unordered_map<NodeId, uint32_t> frequency;
  for (const EngineQuery& query : queries) {
    if (IsSweepWorkload(query.workload)) ++frequency[query.source];
  }
  // Hottest first: a scout task is worth a pool slot only when several
  // queries will derive from its sweep.
  std::vector<std::pair<NodeId, uint32_t>> ranked;
  ranked.reserve(frequency.size());
  for (const auto& [source, count] : frequency) {
    if (count >= 2) ranked.emplace_back(source, count);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<NodeId, uint32_t>& a,
               const std::pair<NodeId, uint32_t>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > kScoutMaxSources) ranked.resize(kScoutMaxSources);
  for (const auto& [source, count] : ranked) {
    (void)count;
    if (sweep_cache_->Contains(SweepKeyFor(source))) continue;
    // Best-effort: a full queue just means no warm-ahead for this source.
    (void)pool_->TrySubmit([this, source](size_t worker_id) {
      ScoutSweep(worker_id, source);
    });
  }
}

Result<WorkloadResult> QueryEngine::ComputeWorkload(
    size_t worker_id, const EngineQuery& query, uint64_t query_seed,
    const CancelToken* cancel, obs::TraceBuffer* trace, uint32_t parent) {
  Estimator& estimator = *replicas_[worker_id];
  if (IsSweepWorkload(query.workload) && sweep_capable_) {
    // Sweep sharing: obtain the per-source vector once (memoized, coalesced,
    // or computed) and derive this query's view of it. Bit-identical to a
    // direct dispatch because the seed is the same sweep seed either way.
    RELCOMP_ASSIGN_OR_RETURN(
        SweepShare share,
        GetSweepVector(worker_id, SweepKeyFor(query.source), cancel, trace,
                       parent));
    StageTimer derive_stage(stage_derive_, trace, obs::SpanKind::kDerive,
                            parent);
    WorkloadResult derived =
        DeriveFromSweep(query, *share.vector, options_.num_samples);
    if (share.peak_memory_bytes > derived.peak_memory_bytes) {
      derived.peak_memory_bytes = share.peak_memory_bytes;
    }
    return derived;
  }
  FaultInjector& injector = FaultInjector::Global();
  if (injector.enabled()) {
    // Content-derived key (the query seed): the set of injected queries is
    // the same at every thread count, so chaos runs are comparable.
    injector.MaybeDelay(query_seed);
    RELCOMP_RETURN_NOT_OK(injector.MaybeFail(FaultSite::kEstimatorFailure,
                                             query_seed, "estimate"));
  }
  {
    StageTimer prepare_stage(stage_prepare_, trace, obs::SpanKind::kPrepare,
                             parent);
    RELCOMP_RETURN_NOT_OK(PrepareReplica(
        estimator, HashCombineSeed(query_seed, kPrepareSeedTag)));
  }
  EstimateOptions estimate_options;
  estimate_options.num_samples = options_.num_samples;
  estimate_options.seed = query_seed;
  // Stratified partitioning applies to every kind with a stratified core:
  // s-t MC estimates split their budget the same canonical way sweeps do
  // (estimators without one ignore the knob).
  estimate_options.num_strata = options_.num_strata;
  estimate_options.cancel = cancel;
  obs::ScopedSpan estimate_span(trace, obs::SpanKind::kEstimate, parent);
  estimate_options.trace = trace;
  estimate_options.trace_parent = estimate_span.id();
  return DispatchWorkload(estimator, query, estimate_options);
}

void QueryEngine::RunOne(size_t worker_id, const EngineQuery& query,
                         EngineResult* slot, uint64_t enqueue_ns) {
  // Tracing: a stack-allocated span collector, armed only when the tracer is
  // engaged — an untraced query allocates nothing and every span call below
  // no-ops on the null buffer. The root opens at the Submit-time stamp, so
  // it covers the queue wait the worker never saw.
  obs::TraceBuffer buffer;
  obs::TraceBuffer* trace = nullptr;
  uint32_t root = obs::TraceBuffer::kNone;
  if (tracer_->engaged()) {
    trace = &buffer;
    buffer.Start(tracer_->NextQueryId(), static_cast<uint32_t>(worker_id));
    root = buffer.BeginAt(obs::SpanKind::kQuery, enqueue_ns,
                          obs::TraceBuffer::kNone,
                          static_cast<uint32_t>(query.workload));
    // The wait is already over (we are running); the span just records it.
    buffer.End(buffer.BeginAt(obs::SpanKind::kQueueWait, enqueue_ns, root));
  }

  const ResultCacheKey key = ResultKeyFor(query);
  slot->query = query;
  slot->seed = key.seed;
  stats_.RecordWorkload(query.workload);

  // Deadline: per-query override, else the engine default; 0 = none. The
  // clock starts at Submit time (enqueue_ns), so queue wait counts against
  // the budget — a query that starved in the queue is already expired when
  // its worker picks it up. The token chains to any caller-provided handle,
  // so either source of cancellation trips it. An infinite or out-of-range
  // deadline means none at all.
  const double deadline_ms =
      query.deadline_ms > 0.0 ? query.deadline_ms : options_.default_deadline_ms;
  const CancelToken token(DeadlineAfter(enqueue_ns, deadline_ms * 1e-3),
                          query.cancel);
  const CancelToken* cancel =
      (token.deadline_ns() != 0 || query.cancel != nullptr) ? &token : nullptr;

  std::shared_ptr<QueryFlight> flight;
  if (TryServeWithoutCompute(key, slot, &flight, cancel, trace, root)) {
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Pre-compute deadline check: the query may have expired while it queued
  // (or the caller cancelled before we got here). Fail it before burning an
  // estimator on an answer nobody wants. A leader slot still retires its
  // flight entry so waiters drain with the same transient status; the
  // transient code keeps it out of the negative cache.
  if (cancel != nullptr && cancel->Cancelled()) {
    ResultCacheValue expired_value;
    expired_value.status = cancel->ToStatus();
    slot->status = expired_value.status;
    slot->seconds = 0.0;
    stats_.RecordFailure(0.0);
    stats_.RecordDeadlineExceeded();
    if (flight != nullptr) FinishFlight(key, *flight, expired_value);
    if (trace != nullptr) {
      buffer.End(root);
      tracer_->Finish(buffer);
    }
    return;
  }

  // Leader (or coalescing disabled): compute on this worker's replica.
  Timer timer;
  ResultCacheValue value;
  Result<WorkloadResult> result =
      ComputeWorkload(worker_id, query, key.seed, cancel, trace, root);
  if (result.ok()) {
    value.reliability = result->reliability;
    value.num_samples = result->num_samples;
    value.targets = std::move(result->targets);
    slot->reliability = value.reliability;
    slot->num_samples = value.num_samples;
    slot->targets = value.targets;
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordExecuted(slot->seconds, result->peak_memory_bytes);
  } else {
    value.status = result.status();
    slot->status = result.status();
    slot->seconds = timer.ElapsedSeconds();
    stats_.RecordFailure(slot->seconds);
    if (IsCancellation(slot->status)) stats_.RecordDeadlineExceeded();
  }
  {
    StageTimer publish_stage(stage_publish_, trace, obs::SpanKind::kPublish,
                             root);
    if (flight != nullptr) {
      FinishFlight(key, *flight, value);
    } else {
      PublishToCache(key, value);
    }
  }
  if (trace != nullptr) {
    buffer.End(root);
    tracer_->Finish(buffer);
  }
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<EngineQuery>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status valid = ValidateWorkload(graph_, queries[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument(
          StrFormat("query %zu: %s", i, valid.message().c_str()));
    }
  }
  if (prebuilder_ != nullptr) {
    // Seed the background builder with the whole batch's prepare seeds
    // (deduplicated and bounded inside): generations for later queries are
    // resampled while workers run the earlier queries' BFS, instead of
    // inline on the serving path.
    for (const EngineQuery& query : queries) {
      RequestPrebuild(query);
    }
  }
  // Warm-ahead scout pass: the batch's hottest sweep sources get stratified
  // warm tasks enqueued ahead of the queries, so their sweeps are leading
  // (and stealable) by the time the queries that need them dispatch.
  ScoutBatch(queries);
  stats_.MarkCallStart();
  auto state = std::make_shared<CallState>();
  state->pending = queries.size();
  std::vector<EngineResult> results(queries.size());
  Timer wall;
  for (size_t i = 0; i < queries.size(); ++i) {
    const EngineQuery query = queries[i];
    EngineResult* slot = &results[i];
    const uint64_t enqueue_ns = StopwatchNs::Now();
    const Status submitted = pool_->Submit(
        [this, query, slot, state, enqueue_ns](size_t worker_id) {
          RunOne(worker_id, query, slot, enqueue_ns);
          std::lock_guard<std::mutex> lock(state->mutex);
          if (--state->pending == 0) state->done.notify_all();
        });
    if (!submitted.ok()) {
      {
        // The tasks from queries [i, n) never made it into the pool.
        std::lock_guard<std::mutex> lock(state->mutex);
        state->pending -= queries.size() - i;
        if (state->pending == 0) state->done.notify_all();
      }
      AwaitCall(*state);  // queued tasks hold `results` slot pointers
      stats_.MarkCallEnd();
      return submitted;
    }
  }
  AwaitCall(*state);
  stats_.AddWallTime(wall.ElapsedSeconds());
  stats_.MarkCallEnd();
  return results;
}

Result<std::vector<EngineResult>> QueryEngine::RunBatch(
    const std::vector<ReliabilityQuery>& queries) {
  std::vector<EngineQuery> wrapped;
  wrapped.reserve(queries.size());
  for (const ReliabilityQuery& query : queries) {
    wrapped.push_back(EngineQuery(query));
  }
  return RunBatch(wrapped);
}

bool QueryEngine::ServableFromCache(const EngineQuery& query) const {
  if (cache_ != nullptr && cache_->Contains(ResultKeyFor(query))) return true;
  // A memoized sweep answers any k / eta over its source without an
  // estimator — deriving is a rank/filter pass, cheap enough to admit.
  return sweep_cache_ != nullptr && IsSweepWorkload(query.workload) &&
         sweep_cache_->Contains(SweepKeyFor(query.source));
}

Status QueryEngine::AdmitQuery(const EngineQuery& query) {
  const size_t depth = pool_->queue_depth();
  const char* reason = nullptr;
  if (depth >= pool_->queue_capacity()) {
    // Submit() would block the caller — under overload that converts the
    // client into part of the queue. Shed instead: cheap for the client to
    // retry, and the hint below tells it when.
    reason = "queue_full";
  } else if (options_.shed_queue_depth > 0 &&
             depth >= options_.shed_queue_depth &&
             !ServableFromCache(query)) {
    // Predictive gate: past the threshold only cache-servable work — which
    // occupies a worker for microseconds — is admitted. Compute-bound
    // queries are cheap to retry *before* they are computed; that is the
    // moment to refuse them.
    reason = "overload";
  }
  if (reason == nullptr) return Status::OK();
  stats_.RecordShed(reason);
  // Retry-after hint: the backlog ahead of this query, paced by the p50
  // query latency per worker. Floor of 1ms keeps the hint meaningful when
  // the histogram is empty (cold engine).
  const double p50_ms = static_cast<double>(
      registry_->GetHistogram("engine_query_latency_ns")
          ->Snapshot()
          .Quantile(0.5)) / 1e6;
  const double waves =
      static_cast<double>(depth) /
      static_cast<double>(pool_->num_threads() == 0 ? 1 : pool_->num_threads());
  const double retry_after_ms = std::max(1.0, waves * p50_ms);
  return Status::Unavailable(
      StrFormat("query shed (%s): queue depth %zu; retry after ~%.0f ms",
                reason, depth, retry_after_ms));
}

Status QueryEngine::Submit(const EngineQuery& query) {
  RELCOMP_RETURN_NOT_OK(ValidateWorkload(graph_, query));
  if (options_.enable_load_shedding) {
    RELCOMP_RETURN_NOT_OK(AdmitQuery(query));
  }
  // Overlap: the builder resamples this query's generation while earlier
  // stream queries are still running their BFS on the workers.
  if (prebuilder_ != nullptr) RequestPrebuild(query);
  // The pool submit happens under stream_mutex_ so a concurrent Drain either
  // sees this query fully enqueued (and waits for it) or not at all (next
  // cycle); a slot can never be mid-flight across a drain boundary.
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (stream_results_.empty()) {
    stream_timer_.Restart();
    stream_state_ = std::make_shared<CallState>();
  }
  if (ScoutingEnabled() && IsSweepWorkload(query.workload)) {
    // Stream-side warm-ahead: the second submission of a source in one
    // cycle marks it hot; a scout task enqueued *before* this query's own
    // task leads the sweep the repeats will derive from.
    if (++stream_sweep_counts_[query.source] == 2) {
      const NodeId source = query.source;
      (void)pool_->TrySubmit([this, source](size_t worker_id) {
        ScoutSweep(worker_id, source);
      });
    }
  }
  stats_.MarkCallStart();
  stream_results_.push_back(std::make_unique<EngineResult>());
  EngineResult* slot = stream_results_.back().get();
  std::shared_ptr<CallState> state = stream_state_;
  {
    std::lock_guard<std::mutex> state_lock(state->mutex);
    ++state->pending;
  }
  const uint64_t enqueue_ns = StopwatchNs::Now();
  const Status submitted = pool_->Submit(
      [this, query, slot, state, enqueue_ns](size_t worker_id) {
        RunOne(worker_id, query, slot, enqueue_ns);
        std::lock_guard<std::mutex> state_lock(state->mutex);
        if (--state->pending == 0) state->done.notify_all();
      });
  if (!submitted.ok()) {
    stream_results_.pop_back();
    std::lock_guard<std::mutex> state_lock(state->mutex);
    --state->pending;
  }
  return submitted;
}

Result<std::vector<EngineResult>> QueryEngine::Drain() {
  // Detach the current stream cycle, then await its own counter: every
  // detached slot's task was accounted under stream_mutex_, so AwaitCall
  // covers all of them, Submits racing this Drain land in the next cycle
  // untouched, and another client's batch load cannot stall us.
  std::vector<std::unique_ptr<EngineResult>> pending;
  std::shared_ptr<CallState> state;
  Timer cycle_timer;
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    pending.swap(stream_results_);
    state = std::move(stream_state_);
    cycle_timer = stream_timer_;
    stream_sweep_counts_.clear();  // scout frequencies are per-cycle
  }
  if (state != nullptr) AwaitCall(*state);
  if (pending.empty()) return std::vector<EngineResult>{};
  stats_.AddWallTime(cycle_timer.ElapsedSeconds());
  stats_.MarkCallEnd();
  std::vector<EngineResult> results;
  results.reserve(pending.size());
  for (const std::unique_ptr<EngineResult>& result : pending) {
    results.push_back(*result);
  }
  return results;
}

}  // namespace relcomp
