#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"

namespace relcomp::obs {

/// Stages of one engine query, in the order the pipeline visits them:
/// Submit -> queue -> cache probe -> single-flight / sweep-flight ->
/// prepare / adopt -> per-stratum execute / steal -> merge -> publish.
enum class SpanKind : uint8_t {
  kQuery,          ///< root: Submit (enqueue) to result publication
  kScout,          ///< root of a warm-ahead scout sweep (no query behind it)
  kQueueWait,      ///< enqueue to dispatch on a worker
  kCacheProbe,     ///< result-cache (detail 0) / sweep-cache (detail 1) probe
  kCoalescedWait,  ///< waiting on a query-level single-flight leader
  kSweepFlight,    ///< participation in a sweep-level flight, claim to ready
  kSweepWait,      ///< waiting for another participant to finalize the sweep
  kPrepare,        ///< PrepareForNextQuery / prebuilt-generation adoption
  kStratum,        ///< one executed sweep stratum (detail = stratum index)
  kMerge,          ///< deterministic stratum merge by the finalizer
  kPublish,        ///< cache insert + flight retirement + waiter wakeup
  kDerive,         ///< deriving a top-k / reliable-set view from a sweep
  kEstimate,       ///< a non-sweep estimator call (st / distance)
  kSample,         ///< estimator-internal MC sampling loop
  kBfs,            ///< estimator-internal shared-BFS pass (BFS Sharing)
};

const char* SpanKindName(SpanKind kind);

/// One closed interval of one query's execution. Timestamps are absolute
/// StopwatchNs::Now() readings, so spans from different queries and threads
/// share one timeline.
struct TraceSpan {
  uint64_t query_id = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint32_t span_id = 0;
  uint32_t parent_id = 0;  ///< TraceBuffer::kNone for the root
  uint32_t detail = 0;     ///< kind-specific (stratum index, workload tag)
  uint32_t thread = 0;     ///< worker id that recorded the span
  SpanKind kind = SpanKind::kQuery;
};

/// \brief Fixed-capacity span collector for one traced query.
///
/// Lives on the worker's stack for the duration of RunOne: Begin/End never
/// allocate, never lock, and never fail (a full buffer counts drops instead).
/// Single-threaded by design — a query executes on exactly one worker, and
/// estimator-internal spans reach the same buffer through
/// EstimateOptions::trace on that same thread.
class TraceBuffer {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;
  static constexpr uint32_t kCapacity = 96;

  /// Arms the buffer for one query; spans recorded before Start are dropped.
  void Start(uint64_t query_id, uint32_t thread) {
    count_ = 0;
    dropped_ = 0;
    query_id_ = query_id;
    thread_ = thread;
  }

  /// Opens a span beginning now; returns its id (kNone when full — End on
  /// kNone is a no-op, so callers never need to check).
  uint32_t Begin(SpanKind kind, uint32_t parent = kNone, uint32_t detail = 0) {
    return BeginAt(kind, StopwatchNs::Now(), parent, detail);
  }

  /// Opens a span with an explicit begin timestamp (e.g. the enqueue stamp
  /// captured before the worker dispatched).
  uint32_t BeginAt(SpanKind kind, uint64_t begin_ns, uint32_t parent = kNone,
                   uint32_t detail = 0) {
    if (count_ >= kCapacity) {
      ++dropped_;
      return kNone;
    }
    TraceSpan& span = spans_[count_];
    span.query_id = query_id_;
    span.begin_ns = begin_ns;
    span.end_ns = begin_ns;
    span.span_id = count_;
    span.parent_id = parent;
    span.detail = detail;
    span.thread = thread_;
    span.kind = kind;
    return count_++;
  }

  /// Closes `span` now (no-op on kNone).
  void End(uint32_t span) { EndAt(span, StopwatchNs::Now()); }

  void EndAt(uint32_t span, uint64_t end_ns) {
    if (span >= count_) return;
    spans_[span].end_ns = end_ns;
  }

  uint32_t size() const { return count_; }
  const TraceSpan& operator[](uint32_t i) const { return spans_[i]; }
  uint32_t dropped() const { return dropped_; }
  uint64_t query_id() const { return query_id_; }

 private:
  TraceSpan spans_[kCapacity];
  uint32_t count_ = 0;
  uint32_t dropped_ = 0;
  uint64_t query_id_ = 0;
  uint32_t thread_ = 0;
};

/// RAII span: no-ops throughout when constructed with a null buffer, so
/// call sites read identically whether the query is traced or not.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, SpanKind kind,
             uint32_t parent = TraceBuffer::kNone, uint32_t detail = 0)
      : buffer_(buffer),
        span_(buffer == nullptr ? TraceBuffer::kNone
                                : buffer->Begin(kind, parent, detail)) {}

  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id for nesting children under this span (kNone when untraced).
  uint32_t id() const { return span_; }

 private:
  TraceBuffer* buffer_;
  uint32_t span_;
};

/// \brief Bounded lock-free ring of published spans, newest overwriting
/// oldest.
///
/// Publish is wait-free (one ticket fetch_add plus a seqlock-stamped slot
/// write); Snapshot is best-effort — a slot being overwritten mid-read is
/// detected by its odd / changed sequence stamp and skipped. Telemetry
/// semantics: readers may miss spans under heavy churn, never see torn ones.
/// A slot holds its span as atomic words, stored with release and loaded
/// with acquire, so the seqlock needs no fence (which ThreadSanitizer does
/// not model) and a racing copy is never a data race.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Publish(const TraceSpan& span);

  /// Consistent copies of the resident spans, oldest first.
  std::vector<TraceSpan> Snapshot() const;

  uint64_t published() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return mask_ + 1; }

 private:
  /// A span as words: query_id, begin_ns, end_ns, then span_id | parent_id,
  /// detail | thread and kind (two 32-bit fields to a word).
  static constexpr size_t kSpanWords = 6;
  using SpanWords = std::array<uint64_t, kSpanWords>;
  static SpanWords Pack(const TraceSpan& span);
  static TraceSpan Unpack(const SpanWords& words);

  struct alignas(64) Slot {
    /// 0 = never written; odd = write in progress; even = ticket*2+2.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kSpanWords];
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

struct TracerOptions {
  /// Fraction of queries whose span trees are published to the ring
  /// (deterministic in the query id). 0 disables sampling entirely.
  double sample_rate = 0.0;
  /// Queries slower than this get their span tree formatted into the
  /// slow-query log regardless of sampling. 0 disables the log.
  double slow_query_ms = 0.0;
  /// Ring capacity in spans (rounded up to a power of two).
  size_t ring_capacity = 4096;
  /// Formatted slow-query dumps retained (oldest evicted).
  size_t max_slow_entries = 32;
};

/// \brief Per-engine trace sink: sampling decision, span ring, slow-query
/// log.
///
/// When neither sampling nor the slow-query log is configured, engaged() is
/// false and the engine skips tracing entirely — the hot path then performs
/// zero allocations and zero tracer calls beyond that one predicate.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options = {});

  /// True when queries should carry a TraceBuffer at all.
  bool engaged() const { return engaged_; }

  const TracerOptions& options() const { return options_; }

  /// Monotonic id for the next traced query (allocation-free).
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Deterministic per-query sampling decision (a hash of the id against
  /// sample_rate), so a given id samples identically on every run.
  bool ShouldSample(uint64_t query_id) const;

  /// Terminal sink for one query's spans: publishes them to the ring when
  /// the query is sampled, and formats the span tree into the slow-query
  /// log when the root exceeded slow_query_ms.
  void Finish(const TraceBuffer& buffer);

  /// nullptr when not engaged.
  const TraceRing* ring() const { return ring_.get(); }

  uint64_t sampled_queries() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  uint64_t slow_queries() const {
    return slow_.load(std::memory_order_relaxed);
  }

  /// Retained slow-query dumps, oldest first.
  std::vector<std::string> SlowQueryLog() const;

  /// Indented tree rendering of one buffer's spans (offset from the root +
  /// duration per line).
  static std::string FormatSpanTree(const TraceSpan* spans, size_t count);

 private:
  const TracerOptions options_;
  const bool engaged_;
  /// sample_rate scaled to the uint64 hash range; ~0 means "always".
  const uint64_t sample_threshold_;
  std::unique_ptr<TraceRing> ring_;
  std::atomic<uint64_t> next_query_id_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> slow_{0};
  mutable std::mutex slow_mutex_;
  std::deque<std::string> slow_log_;
};

}  // namespace relcomp::obs
