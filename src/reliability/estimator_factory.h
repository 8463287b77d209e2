#pragma once

#include <memory>
#include <vector>

#include "reliability/bfs_sharing.h"
#include "reliability/estimator.h"
#include "reliability/lazy_propagation.h"
#include "reliability/prob_tree.h"
#include "reliability/recursive_sampling.h"
#include "reliability/recursive_stratified.h"

namespace relcomp {

/// \brief The estimators of the study, plus the coupled variants of
/// Section 3.8 and the uncorrected LP of Figure 5.
enum class EstimatorKind {
  kMonteCarlo = 0,        ///< MC (Alg. 1)
  kBfsSharing,            ///< BFS Sharing index (Alg. 2+3)
  kProbTree,              ///< FWD ProbTree + MC (Alg. 7+8)
  kLazyPropagationPlus,   ///< LP+ (Alg. 6, corrected)
  kRecursive,             ///< RHH (Alg. 4)
  kRecursiveStratified,   ///< RSS (Alg. 5)
  kLazyPropagation,       ///< LP, the original buggy re-arm (Figure 5)
  kProbTreeLpPlus,        ///< ProbTree + LP+ (Table 16)
  kProbTreeRhh,           ///< ProbTree + RHH (Table 16)
  kProbTreeRss,           ///< ProbTree + RSS (Table 16)
};

/// Display name matching Estimator::name().
const char* EstimatorKindName(EstimatorKind kind);

/// The six estimators of the paper's headline comparison, in the row order
/// of Tables 3-14: MC, BFS Sharing, ProbTree, LP+, RHH, RSS.
std::vector<EstimatorKind> TheSixEstimators();

/// True for the kinds whose replicas share one offline index — every
/// ProbTree kind — built once by MakeEstimatorReplicas, and so the kinds an
/// engine persists in its index snapshot. False for BFS Sharing, whose
/// replicas start with no generation and resample before every answer.
bool HasSharedIndex(EstimatorKind kind);

/// \brief Construction knobs for MakeEstimator.
struct FactoryOptions {
  BfsSharingOptions bfs_sharing;       ///< L = 1500 by default (Section 3.7)
  RecursiveSamplingOptions recursive;  ///< threshold = 5 [20]
  RssOptions rss;                      ///< r = 50, threshold = 5 [28]
  ProbTreeOptions prob_tree;           ///< w = 2 (lossless) [32]
  /// Seed of a bare BFS Sharing estimator's generation 0 (MakeEstimator).
  uint64_t index_seed = 0x5EED;

  /// Preloaded ProbTree index (persistence tier): when set,
  /// MakeEstimatorReplicas hands every replica of a ProbTree kind this
  /// index instead of building one — the snapshot cold-start path. The
  /// caller (PersistentStore) is responsible for having matched the index
  /// against the graph and these options. MakeEstimator (single instance)
  /// ignores it.
  std::shared_ptr<const ProbTreeIndex> preloaded_prob_tree;
};

/// Builds an estimator of `kind` over `graph` (building any index it needs).
Result<std::unique_ptr<Estimator>> MakeEstimator(EstimatorKind kind,
                                                 const UncertainGraph& graph,
                                                 const FactoryOptions& options = {});

/// \brief Replica path for concurrent serving: builds `count` interchangeable
/// instances of `kind` over `graph`, one per worker thread (Estimator
/// instances are not thread-safe; the engine routes every task to its
/// worker's private replica).
///
/// Replicas are interchangeable: a query answered by replica 3 returns the
/// same result as one answered by replica 0.
///
/// The ProbTree kinds build their (seed-free) index **once** and hand every
/// replica a `shared_ptr<const>` to it: construction cost and index memory
/// are O(1) in `count`, and the serving path reads the index without
/// synchronization. Each replica keeps only private scratch. BFS Sharing
/// replicas are built with no generation at all
/// (BfsSharingEstimator::CreateReplica): each samples its own with the
/// prepare that precedes every answer (or adopts another replica's), so
/// building them samples nothing.
///
/// `num_samples`, when nonzero, is the budget K the replicas answer with.
/// BFS Sharing replicas then prepare generations of only the worlds such
/// queries read, ceil(K / 64) words per edge, with the same answers. Every
/// other kind ignores it.
Result<std::vector<std::unique_ptr<Estimator>>> MakeEstimatorReplicas(
    EstimatorKind kind, const UncertainGraph& graph, size_t count,
    const FactoryOptions& options = {}, uint32_t num_samples = 0);

/// Deduplicated index footprint of a replica set: an index two or more
/// replicas hold (the same Estimator::SharedIndexIdentity) is counted once
/// under shared_bytes; every other index byte, including an index only one
/// replica holds, is summed under replica_bytes. Use this instead of summing
/// IndexMemoryBytes() whenever replicas may share an index.
IndexMemoryReport ReportIndexMemory(
    const std::vector<std::unique_ptr<Estimator>>& replicas);

}  // namespace relcomp
