#pragma once

#include <string>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace relcomp {

/// \name Text edge-list format
///
/// One edge per line: `tail head prob`, whitespace separated. Lines starting
/// with '#' or '%' are comments. Node ids are dense non-negative integers.
/// @{

/// Parses an edge list from an in-memory string (useful for tests).
Result<UncertainGraph> ParseEdgeListString(const std::string& content);

/// Renders the graph in the text edge-list format.
std::string WriteEdgeListString(const UncertainGraph& graph);

/// Loads a text edge list from `path`.
Result<UncertainGraph> LoadEdgeListText(const std::string& path);

/// Writes a text edge list to `path` (overwrites).
Status SaveEdgeListText(const UncertainGraph& graph, const std::string& path);
/// @}

/// \name Binary format
///
/// A standalone graph file: magic "RELCOMPG", version u32 = 2, then the
/// AppendGraphBlock payload (host byte order), parsed by ParseGraphBlock's
/// bounds checks.
/// @{
Result<UncertainGraph> LoadBinary(const std::string& path);
Status SaveBinary(const UncertainGraph& graph, const std::string& path);
/// @}

/// \name Snapshot-section payloads (persistence tier)
/// @{

/// Serializes the graph as a snapshot-section payload: {n u64, m u64,
/// layout u8, pad u8[7]} then m EdgeRecord triples (tail u32, head u32,
/// prob f64) in edge-id order. Layout is preserved so a restored engine
/// rebuilds the same storage (kRaw/kCompact are observationally identical
/// either way).
void AppendGraphBlock(const UncertainGraph& graph, std::string* out);

/// Reconstructs a graph from an AppendGraphBlock payload (bounds-checked;
/// truncated or malformed payloads return kIOError).
Result<UncertainGraph> ParseGraphBlock(const void* data, size_t size);

/// Content fingerprint of a graph: a seed-style hash over (n, m) and every
/// edge's (tail, head, bitwise prob) in edge-id order. Identical across
/// storage layouts (edge(e) is layout-invariant by contract). The snapshot
/// manifest records it so a snapshot is only ever applied to the graph it
/// was built from.
uint64_t GraphFingerprint(const UncertainGraph& graph);
/// @}

}  // namespace relcomp
