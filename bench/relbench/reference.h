#pragma once

// The accuracy reference behind rel_error_mean: a plain possible-world Monte
// Carlo sampler owned by the benchmark. It reads only the UncertainGraph
// adjacency and draws from its own generator, so no change to the library's
// estimators or RNG can move the reference it is judged against.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/uncertain_graph.h"

namespace relbench {

/// One scalar question: R(s, t), or R_d(s, t) when max_hops > 0.
struct ScalarPair {
  relcomp::NodeId source = 0;
  relcomp::NodeId target = 0;
  uint32_t max_hops = 0;  ///< 0 = no hop bound (s-t reliability)
};

/// Samples `k_ref` possible worlds per pair (edges flipped lazily as a BFS
/// from the source first examines them; the BFS stops at the target or at
/// the hop bound) and returns the fraction of worlds where the target is
/// reached. Pairs are spread over `threads` threads; each pair's stream is
/// seeded from (seed, pair), so the answer does not depend on `threads`.
std::vector<double> SampleReference(const relcomp::UncertainGraph& graph,
                                    const std::vector<ScalarPair>& pairs,
                                    uint32_t k_ref, uint64_t seed,
                                    size_t threads);

/// SampleReference behind a file cache at `path`: a cache file holding
/// exactly `pairs` is read back; otherwise the reference is sampled and the
/// file rewritten (atomically, via a temporary and rename). An unwritable
/// cache only costs the next run a resample.
std::vector<double> CachedReference(const std::string& path,
                                    const relcomp::UncertainGraph& graph,
                                    const std::vector<ScalarPair>& pairs,
                                    uint32_t k_ref, uint64_t seed,
                                    size_t threads);

}  // namespace relbench
