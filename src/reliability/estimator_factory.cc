#include "reliability/estimator_factory.h"

#include <algorithm>

#include "reliability/mc_sampling.h"

namespace relcomp {

namespace {

/// ProbTree inner estimator for the coupled kinds (Table 16).
ProbTreeInner InnerFor(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kProbTreeLpPlus:
      return ProbTreeInner::kLazyPropagationPlus;
    case EstimatorKind::kProbTreeRhh:
      return ProbTreeInner::kRecursive;
    case EstimatorKind::kProbTreeRss:
      return ProbTreeInner::kRecursiveStratified;
    default:
      return ProbTreeInner::kMonteCarlo;
  }
}

}  // namespace

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kMonteCarlo:
      return "MC";
    case EstimatorKind::kBfsSharing:
      return "BFSSharing";
    case EstimatorKind::kProbTree:
      return "ProbTree";
    case EstimatorKind::kLazyPropagationPlus:
      return "LP+";
    case EstimatorKind::kRecursive:
      return "RHH";
    case EstimatorKind::kRecursiveStratified:
      return "RSS";
    case EstimatorKind::kLazyPropagation:
      return "LP";
    case EstimatorKind::kProbTreeLpPlus:
      return "ProbTree+LP+";
    case EstimatorKind::kProbTreeRhh:
      return "ProbTree+RHH";
    case EstimatorKind::kProbTreeRss:
      return "ProbTree+RSS";
  }
  return "Unknown";
}

std::vector<EstimatorKind> TheSixEstimators() {
  return {EstimatorKind::kMonteCarlo,          EstimatorKind::kBfsSharing,
          EstimatorKind::kProbTree,            EstimatorKind::kLazyPropagationPlus,
          EstimatorKind::kRecursive,           EstimatorKind::kRecursiveStratified};
}

bool HasSharedIndex(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kProbTree:
    case EstimatorKind::kProbTreeLpPlus:
    case EstimatorKind::kProbTreeRhh:
    case EstimatorKind::kProbTreeRss:
      return true;
    default:
      return false;
  }
}

Result<std::unique_ptr<Estimator>> MakeEstimator(EstimatorKind kind,
                                                 const UncertainGraph& graph,
                                                 const FactoryOptions& options) {
  switch (kind) {
    case EstimatorKind::kMonteCarlo:
      return std::unique_ptr<Estimator>(new MonteCarloEstimator(graph));
    case EstimatorKind::kBfsSharing: {
      RELCOMP_ASSIGN_OR_RETURN(
          std::unique_ptr<BfsSharingEstimator> estimator,
          BfsSharingEstimator::Create(graph, options.bfs_sharing,
                                      options.index_seed));
      return std::unique_ptr<Estimator>(std::move(estimator));
    }
    case EstimatorKind::kProbTree:
    case EstimatorKind::kProbTreeLpPlus:
    case EstimatorKind::kProbTreeRhh:
    case EstimatorKind::kProbTreeRss: {
      RELCOMP_ASSIGN_OR_RETURN(
          std::unique_ptr<ProbTreeEstimator> estimator,
          ProbTreeEstimator::Create(graph, options.prob_tree, InnerFor(kind)));
      return std::unique_ptr<Estimator>(std::move(estimator));
    }
    case EstimatorKind::kLazyPropagationPlus: {
      LazyPropagationOptions lp;
      lp.corrected = true;
      return std::unique_ptr<Estimator>(new LazyPropagationEstimator(graph, lp));
    }
    case EstimatorKind::kLazyPropagation: {
      LazyPropagationOptions lp;
      lp.corrected = false;
      return std::unique_ptr<Estimator>(new LazyPropagationEstimator(graph, lp));
    }
    case EstimatorKind::kRecursive:
      return std::unique_ptr<Estimator>(
          new RecursiveEstimator(graph, options.recursive));
    case EstimatorKind::kRecursiveStratified:
      return std::unique_ptr<Estimator>(
          new RecursiveStratifiedEstimator(graph, options.rss));
  }
  return Status::InvalidArgument("unknown estimator kind");
}

Result<std::vector<std::unique_ptr<Estimator>>> MakeEstimatorReplicas(
    EstimatorKind kind, const UncertainGraph& graph, size_t count,
    const FactoryOptions& options, uint32_t num_samples) {
  if (count == 0) {
    return Status::InvalidArgument("replica count must be positive");
  }
  std::vector<std::unique_ptr<Estimator>> replicas;
  replicas.reserve(count);
  switch (kind) {
    // No generation yet: each replica prepares its own before its first
    // answer.
    case EstimatorKind::kBfsSharing: {
      for (size_t i = 0; i < count; ++i) {
        RELCOMP_ASSIGN_OR_RETURN(
            std::unique_ptr<BfsSharingEstimator> replica,
            BfsSharingEstimator::CreateReplica(graph, options.bfs_sharing,
                                               num_samples));
        replicas.push_back(std::move(replica));
      }
      return replicas;
    }
    // Index-carrying kinds: build the immutable index once, share it —
    // unless the persistence tier preloaded one (snapshot cold-start).
    case EstimatorKind::kProbTree:
    case EstimatorKind::kProbTreeLpPlus:
    case EstimatorKind::kProbTreeRhh:
    case EstimatorKind::kProbTreeRss: {
      std::shared_ptr<const ProbTreeIndex> index = options.preloaded_prob_tree;
      if (index == nullptr) {
        RELCOMP_ASSIGN_OR_RETURN(
            index, ProbTreeIndex::BuildShared(graph, options.prob_tree));
      }
      for (size_t i = 0; i < count; ++i) {
        RELCOMP_ASSIGN_OR_RETURN(
            std::unique_ptr<ProbTreeEstimator> replica,
            ProbTreeEstimator::CreateWithIndex(graph, index, InnerFor(kind)));
        replicas.push_back(std::move(replica));
      }
      return replicas;
    }
    // Index-free kinds: independent instances are already O(1) to build.
    default:
      break;
  }
  for (size_t i = 0; i < count; ++i) {
    RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<Estimator> replica,
                             MakeEstimator(kind, graph, options));
    replicas.push_back(std::move(replica));
  }
  return replicas;
}

IndexMemoryReport ReportIndexMemory(
    const std::vector<std::unique_ptr<Estimator>>& replicas) {
  // Each replica's identity is read once: a BFS Sharing worker may swap
  // generations meanwhile.
  std::vector<const void*> identities;
  identities.reserve(replicas.size());
  for (const std::unique_ptr<Estimator>& replica : replicas) {
    identities.push_back(replica == nullptr ? nullptr
                                            : replica->SharedIndexIdentity());
  }
  IndexMemoryReport report;
  std::vector<const void*> seen;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] == nullptr) continue;
    const void* identity = identities[i];
    const size_t total = replicas[i]->IndexMemoryBytes();
    // An index only one replica holds is that replica's own.
    if (identity == nullptr ||
        std::count(identities.begin(), identities.end(), identity) < 2) {
      report.replica_bytes += total;
      continue;
    }
    const size_t shared = replicas[i]->SharedIndexBytes();
    report.replica_bytes += total - shared;
    if (std::find(seen.begin(), seen.end(), identity) == seen.end()) {
      seen.push_back(identity);
      report.shared_bytes += shared;
      ++report.shared_indexes;
    }
  }
  return report;
}

}  // namespace relcomp
