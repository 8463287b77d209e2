#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/format.h"
#include "common/rng.h"
#include "common/wire.h"
#include "graph/graph_builder.h"

namespace relcomp {

namespace {

constexpr char kBinaryMagic[8] = {'R', 'E', 'L', 'C', 'O', 'M', 'P', 'G'};
/// Version 2: the magic and version are followed by the AppendGraphBlock
/// payload.
constexpr uint32_t kBinaryVersion = 2;

Result<UncertainGraph> ParseEdgeListStream(std::istream& in) {
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const std::vector<std::string> tokens = SplitString(line, " \t\r");
    if (tokens.empty()) continue;
    if (tokens.size() != 3) {
      return Status::IOError(
          StrFormat("line %zu: expected 'tail head prob', got %zu tokens",
                    line_no, tokens.size()));
    }
    uint64_t tail = 0;
    uint64_t head = 0;
    double prob = 0.0;
    if (!ParseUint64(tokens[0], &tail) || !ParseUint64(tokens[1], &head) ||
        !ParseDouble(tokens[2], &prob)) {
      return Status::IOError(StrFormat("line %zu: malformed edge", line_no));
    }
    if (tail > kInvalidNode - 1 || head > kInvalidNode - 1) {
      return Status::IOError(StrFormat("line %zu: node id out of range", line_no));
    }
    const Status st = builder.AddEdge(static_cast<NodeId>(tail),
                                      static_cast<NodeId>(head), prob);
    if (!st.ok()) {
      return Status::IOError(StrFormat("line %zu: %s", line_no,
                                       st.message().c_str()));
    }
  }
  return builder.Build();
}

}  // namespace

Result<UncertainGraph> ParseEdgeListString(const std::string& content) {
  std::istringstream in(content);
  return ParseEdgeListStream(in);
}

std::string WriteEdgeListString(const UncertainGraph& graph) {
  std::string out;
  out += StrFormat("# relcomp uncertain graph: n=%zu m=%zu\n", graph.num_nodes(),
                   graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const EdgeRecord& rec = graph.edge(e);
    out += StrFormat("%u %u %.17g\n", rec.tail, rec.head, rec.prob);
  }
  return out;
}

Result<UncertainGraph> LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  return ParseEdgeListStream(in);
}

Status SaveEdgeListText(const UncertainGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << WriteEdgeListString(graph);
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<UncertainGraph> LoadBinary(const std::string& path) {
  std::string bytes;
  RELCOMP_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  WireReader reader(bytes.data(), bytes.size());
  char magic[sizeof(kBinaryMagic)];
  uint32_t version = 0;
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0 ||
      !reader.ReadU32(&version)) {
    return Status::IOError("not a relcomp binary graph: " + path);
  }
  if (version != kBinaryVersion) {
    return Status::IOError(StrFormat("unsupported binary version %u", version));
  }
  return ParseGraphBlock(reader.cursor(), reader.remaining());
}

Status SaveBinary(const UncertainGraph& graph, const std::string& path) {
  std::string bytes(kBinaryMagic, sizeof(kBinaryMagic));
  WireWriter(&bytes).PutU32(kBinaryVersion);
  AppendGraphBlock(graph, &bytes);
  return WriteFileBytes(path, bytes);
}

void AppendGraphBlock(const UncertainGraph& graph, std::string* out) {
  WireWriter writer(out);
  writer.PutU64(graph.num_nodes());
  writer.PutU64(graph.num_edges());
  writer.PutU8(graph.layout() == StorageLayout::kCompact ? 1 : 0);
  for (int i = 0; i < 7; ++i) writer.PutU8(0);  // pad
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const EdgeRecord rec = graph.edge(e);
    writer.PutU32(rec.tail);
    writer.PutU32(rec.head);
    writer.PutF64(rec.prob);
  }
}

Result<UncertainGraph> ParseGraphBlock(const void* data, size_t size) {
  WireReader reader(data, size);
  uint64_t n = 0, m = 0;
  uint8_t layout = 0;
  if (!reader.ReadU64(&n) || !reader.ReadU64(&m) || !reader.ReadU8(&layout) ||
      !reader.Skip(7)) {
    return Status::IOError("graph block: truncated header");
  }
  if (layout > 1 || reader.remaining() % 16 != 0 ||
      m != reader.remaining() / 16) {
    return Status::IOError("graph block: malformed header");
  }
  GraphBuilder builder(n);
  builder.ReserveEdges(m);
  for (uint64_t i = 0; i < m; ++i) {
    uint32_t tail = 0, head = 0;
    double prob = 0.0;
    if (!reader.ReadU32(&tail) || !reader.ReadU32(&head) ||
        !reader.ReadF64(&prob)) {
      return Status::IOError(StrFormat("graph block: truncated at edge %llu",
                                       static_cast<unsigned long long>(i)));
    }
    RELCOMP_RETURN_NOT_OK(builder.AddEdge(tail, head, prob));
  }
  return builder.Build(layout == 1 ? StorageLayout::kCompact
                                   : StorageLayout::kRaw);
}

uint64_t GraphFingerprint(const UncertainGraph& graph) {
  uint64_t h = HashCombineSeed(0x67726166ULL, graph.num_nodes());  // "graf"
  h = HashCombineSeed(h, graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const EdgeRecord rec = graph.edge(e);
    h = HashCombineSeed(h, rec.tail);
    h = HashCombineSeed(h, rec.head);
    uint64_t prob_bits = 0;
    std::memcpy(&prob_bits, &rec.prob, sizeof(prob_bits));
    h = HashCombineSeed(h, prob_bits);
  }
  return h;
}

}  // namespace relcomp
