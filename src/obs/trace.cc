#include "obs/trace.h"

#include <algorithm>

#include "common/format.h"

namespace relcomp::obs {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// SplitMix64 finalizer — local copy so obs stays dependency-light.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kCacheProbe:
      return "cache_probe";
    case SpanKind::kCoalescedWait:
      return "coalesced_wait";
    case SpanKind::kSweepFlight:
      return "sweep_flight";
    case SpanKind::kSweepWait:
      return "sweep_wait";
    case SpanKind::kPrepare:
      return "prepare";
    case SpanKind::kStratum:
      return "stratum";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kPublish:
      return "publish";
    case SpanKind::kDerive:
      return "derive";
    case SpanKind::kEstimate:
      return "estimate";
    case SpanKind::kSample:
      return "sample";
    case SpanKind::kBfs:
      return "bfs";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity)
    : mask_(RoundUpToPowerOfTwo(capacity < 2 ? 2 : capacity) - 1),
      slots_(new Slot[mask_ + 1]) {}

TraceRing::SpanWords TraceRing::Pack(const TraceSpan& span) {
  return {span.query_id,
          span.begin_ns,
          span.end_ns,
          span.span_id | uint64_t{span.parent_id} << 32,
          span.detail | uint64_t{span.thread} << 32,
          static_cast<uint64_t>(span.kind)};
}

TraceSpan TraceRing::Unpack(const SpanWords& words) {
  TraceSpan span;
  span.query_id = words[0];
  span.begin_ns = words[1];
  span.end_ns = words[2];
  span.span_id = static_cast<uint32_t>(words[3]);
  span.parent_id = static_cast<uint32_t>(words[3] >> 32);
  span.detail = static_cast<uint32_t>(words[4]);
  span.thread = static_cast<uint32_t>(words[4] >> 32);
  span.kind = static_cast<SpanKind>(words[5]);
  return span;
}

void TraceRing::Publish(const TraceSpan& span) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Seqlock stamp: odd while the write is in flight, even (2*ticket + 2,
  // unique per ticket) once done. A reader seeing either an odd stamp or a
  // stamp change across its copy skips the slot. Each word's release store
  // carries the odd stamp before it to any reader that loads the word.
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  const SpanWords words = Pack(span);
  for (size_t w = 0; w < kSpanWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_release);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<TraceSpan> TraceRing::Snapshot() const {
  std::vector<TraceSpan> spans;
  spans.reserve(mask_ + 1);
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    SpanWords words;
    for (size_t w = 0; w < kSpanWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    // A word from a later write was loaded with acquire from its release
    // store, so that write's odd stamp is visible here: the re-check sees
    // the stamp change and skips the torn copy.
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    spans.push_back(Unpack(words));
  }
  // Oldest first across the wrap point: tickets grow monotonically, and the
  // begin timestamp orders spans within and across queries well enough for
  // telemetry readers.
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.span_id < b.span_id;
            });
  return spans;
}

Tracer::Tracer(const TracerOptions& options)
    : options_(options),
      engaged_(options.sample_rate > 0.0 || options.slow_query_ms > 0.0),
      sample_threshold_(
          options.sample_rate >= 1.0
              ? ~uint64_t{0}
              : static_cast<uint64_t>(
                    options.sample_rate <= 0.0
                        ? 0.0
                        : options.sample_rate * 18446744073709551615.0)) {
  if (engaged_) {
    ring_ = std::make_unique<TraceRing>(options_.ring_capacity);
  }
}

bool Tracer::ShouldSample(uint64_t query_id) const {
  if (sample_threshold_ == 0) return false;
  if (sample_threshold_ == ~uint64_t{0}) return true;
  return MixId(query_id) <= sample_threshold_;
}

void Tracer::Finish(const TraceBuffer& buffer) {
  if (!engaged_ || buffer.size() == 0) return;
  if (ShouldSample(buffer.query_id())) {
    sampled_.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t i = 0; i < buffer.size(); ++i) {
      ring_->Publish(buffer[i]);
    }
  }
  if (options_.slow_query_ms > 0.0) {
    const TraceSpan& root = buffer[0];
    const double elapsed_ms =
        static_cast<double>(root.end_ns - root.begin_ns) * 1e-6;
    if (elapsed_ms > options_.slow_query_ms) {
      // Slow path by definition: formatting may allocate freely here.
      slow_.fetch_add(1, std::memory_order_relaxed);
      std::string dump = StrFormat(
          "slow query id=%llu thread=%u %.3f ms (threshold %.3f ms)\n",
          static_cast<unsigned long long>(root.query_id), root.thread,
          elapsed_ms, options_.slow_query_ms);
      dump += FormatSpanTree(&buffer[0], buffer.size());
      if (buffer.dropped() > 0) {
        dump += StrFormat("  (+%u spans dropped: buffer full)\n",
                          buffer.dropped());
      }
      std::lock_guard<std::mutex> lock(slow_mutex_);
      slow_log_.push_back(std::move(dump));
      while (slow_log_.size() > options_.max_slow_entries) {
        slow_log_.pop_front();
      }
    }
  }
}

std::vector<std::string> Tracer::SlowQueryLog() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return std::vector<std::string>(slow_log_.begin(), slow_log_.end());
}

std::string Tracer::FormatSpanTree(const TraceSpan* spans, size_t count) {
  if (count == 0) return "";
  // Children in id order under each parent; ids are assigned in Begin order,
  // so this is also chronological begin order.
  std::vector<std::vector<uint32_t>> children(count);
  std::vector<uint32_t> roots;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t parent = spans[i].parent_id;
    if (parent < count && parent != spans[i].span_id) {
      children[parent].push_back(static_cast<uint32_t>(i));
    } else {
      roots.push_back(static_cast<uint32_t>(i));
    }
  }
  const uint64_t origin_ns = spans[roots.empty() ? 0 : roots[0]].begin_ns;
  std::string out;
  // Iterative DFS (explicit stack) — span trees are shallow, but the
  // formatter must not assume so.
  std::vector<std::pair<uint32_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const TraceSpan& span = spans[index];
    out.append(static_cast<size_t>(2 * (depth + 1)), ' ');
    out += SpanKindName(span.kind);
    if (span.kind == SpanKind::kStratum || span.kind == SpanKind::kCacheProbe) {
      out += StrFormat("[%u]", span.detail);
    }
    out += StrFormat(
        " +%.3f ms %.3f ms\n",
        static_cast<double>(span.begin_ns - origin_ns) * 1e-6,
        static_cast<double>(span.end_ns - span.begin_ns) * 1e-6);
    const std::vector<uint32_t>& kids = children[index];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out;
}

}  // namespace relcomp::obs
