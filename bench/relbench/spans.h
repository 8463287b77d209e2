#pragma once

// Span records of the traced repetition, kept in memory per thread and
// written once at exit. Spans are recorded only by the benchmark, around its
// calls into the library; nothing is traced inside the library.

#include <cstdint>
#include <string>
#include <vector>

namespace relbench {

inline constexpr uint64_t kNoSpan = ~uint64_t{0};

struct Span {
  const char* name = "";  ///< static string, e.g. "reliability.sweep"
  uint64_t id = kNoSpan;
  uint64_t parent = kNoSpan;
  uint64_t request = 0;  ///< call index, or query index for replay spans
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's span log. Span ids are (buffer index << 32 | position), so
/// the logs of several threads merge without renumbering.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t index) : index_(index) {}

  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t index_;
  std::vector<Span> spans_;
};

/// Begin/End around a scope on a nullable buffer; a null buffer (untraced
/// repetition) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent,
             uint64_t request)
      : buffer_(buffer),
        id_(buffer == nullptr ? kNoSpan
                              : buffer->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  uint64_t id_;
};

/// Each span's self time: its duration minus the part of its interval its
/// children cover (overlapping children counted once). Same order as
/// `spans`.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes {"spans": [...]} with times relative to the earliest start.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace relbench
