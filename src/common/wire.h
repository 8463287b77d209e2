#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace relcomp {

/// \brief Append-only byte writer over a std::string — the serialization
/// primitive of the persistence tier's section payloads.
///
/// Fixed-width fields are written by memcpy in host byte order, as in the
/// repo's standalone binary files (graph, BFS Sharing and ProbTree indexes),
/// which are a magic followed by the same blocks: snapshots and those files
/// are artifacts for the machine that wrote them, not an interchange format.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutF64(double v) { PutBytes(&v, sizeof(v)); }

  void PutBytes(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }

  size_t size() const { return out_->size(); }

 private:
  std::string* out_;
};

/// \brief Bounds-checked reader over an immutable byte span.
///
/// Every Read* returns false (and reads nothing) once the span is exhausted
/// or the requested width does not fit — a truncated or bit-flipped payload
/// parses into a clean failure, never past-the-end reads. The persistence
/// tier additionally checksums every payload before parsing; the bounds
/// checks are the second line of defense.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  bool ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }

  bool ReadBytes(void* out, size_t size) {
    if (size > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  bool Skip(size_t size) {
    if (size > size_ - pos_) return false;
    pos_ += size;
    return true;
  }

  /// Current read position (for zero-copy views into the span).
  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Whole-file I/O for the standalone binary files: each is a magic followed
/// by one block, parsed in memory by the block's bounds-checked reader.
Status ReadFileBytes(const std::string& path, std::string* out);
Status WriteFileBytes(const std::string& path, const std::string& bytes);

}  // namespace relcomp
