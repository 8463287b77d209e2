#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/timer.h"

namespace relbench {

uint64_t SpanBuffer::Begin(const char* name, uint64_t parent,
                           uint64_t request) {
  Span span;
  span.name = name;
  span.id = (index_ << 32) | spans_.size();
  span.parent = parent;
  span.request = request;
  span.start_ns = relcomp::StopwatchNs::Now();
  spans_.push_back(span);
  return span.id;
}

void SpanBuffer::End(uint64_t id) {
  spans_[id & 0xffffffffULL].end_ns = relcomp::StopwatchNs::Now();
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> position;
  position.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    const auto parent = position.find(span.parent);
    if (parent != position.end()) {
      children[parent->second].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].start_ns;
    const uint64_t end = std::max(spans[i].end_ns, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = begin;  // end of the covered prefix so far
    for (const auto& [kid_begin, kid_end] : kids) {
      const uint64_t lo = std::max(kid_begin, reach);
      const uint64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = end - begin - std::min(covered, end - begin);
  }
  return self;
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t origin = ~uint64_t{0};
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fprintf(out, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %llu, \"name\": \"%s\", \"parent\": %s, "
                 "\"request\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 s.name,
                 s.parent == kNoSpan
                     ? "null"
                     : std::to_string(s.parent).c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace relbench
