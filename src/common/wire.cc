#include "common/wire.h"

#include <fstream>

namespace relcomp {

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return Status::IOError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot size: " + path);
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(out->data(), size);
  if (!in.good()) return Status::IOError("read failed: " + path);
  return Status::OK();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace relcomp
