#include "reliability/mc_sampling.h"

#include "common/rng.h"

namespace relcomp {

namespace {

Status ValidateSweep(const UncertainGraph& graph, NodeId source,
                     uint32_t num_samples) {
  if (!graph.HasNode(source)) {
    return Status::InvalidArgument("source sweep: source out of range");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument(
        "source sweep: num_samples must be positive");
  }
  return Status::OK();
}

/// Full stratified sweep into `hit_count` (zeroed here): stratum j samples
/// StratumSampleCount(K, S, j) worlds from Rng(StratumSeed(seed, j, S)) and
/// strata accumulate in index order, which is what the engine's stratum
/// merge replays. Polls `cancel` at every stratum boundary (and, inside the
/// sampler, every few dozen samples); a cancelled sweep's counts must be
/// discarded.
Status StratifiedSweepHits(LazySamplingBfs& sampler, NodeId source,
                           uint32_t num_samples, uint64_t seed,
                           uint32_t num_strata,
                           std::vector<uint32_t>& hit_count,
                           const CancelToken* cancel) {
  hit_count.assign(hit_count.size(), 0);
  const uint32_t strata = num_strata == 0 ? 1 : num_strata;
  for (uint32_t j = 0; j < strata; ++j) {
    if (cancel != nullptr && cancel->Cancelled()) return cancel->ToStatus();
    const uint32_t samples = StratumSampleCount(num_samples, strata, j);
    if (samples == 0) continue;
    Rng rng(StratumSeed(seed, j, strata));
    RELCOMP_RETURN_NOT_OK(sampler.AccumulateReached(
        {.source = source}, samples, rng, hit_count, cancel));
  }
  return Status::OK();
}

std::vector<double> HitsToReliability(const std::vector<uint32_t>& hit_count,
                                      uint32_t num_samples) {
  std::vector<double> reliability(hit_count.size(), 0.0);
  for (size_t v = 0; v < hit_count.size(); ++v) {
    reliability[v] =
        static_cast<double>(hit_count[v]) / static_cast<double>(num_samples);
  }
  return reliability;
}

}  // namespace

Result<std::vector<double>> MonteCarloReliabilityFromSource(
    const UncertainGraph& graph, NodeId source, uint32_t num_samples,
    uint64_t seed, uint32_t num_strata) {
  RELCOMP_RETURN_NOT_OK(ValidateSweep(graph, source, num_samples));
  LazySamplingBfs sampler(graph);
  std::vector<uint32_t> hit_count(graph.num_nodes());
  RELCOMP_RETURN_NOT_OK(StratifiedSweepHits(sampler, source, num_samples, seed,
                                            num_strata, hit_count,
                                            /*cancel=*/nullptr));
  return HitsToReliability(hit_count, num_samples);
}

MonteCarloEstimator::MonteCarloEstimator(const UncertainGraph& graph)
    : graph_(graph), sampler_(graph) {}

Result<std::vector<double>> MonteCarloEstimator::EstimateFromSource(
    NodeId source, const EstimateOptions& options) {
  RELCOMP_RETURN_NOT_OK(ValidateSweep(graph_, source, options.num_samples));
  // Working state: sampler scratch, hit counts, result vector.
  ScopedAllocation working(
      options.memory,
      sampler_.WorkingBytes() +
          graph_.num_nodes() * (sizeof(uint32_t) + sizeof(double)));
  sweep_hits_.resize(graph_.num_nodes());
  // Trace the sampling loop itself (validation and scratch setup excluded).
  obs::ScopedSpan sample_span(options.trace, obs::SpanKind::kSample,
                              options.trace_parent, options.num_strata);
  RELCOMP_RETURN_NOT_OK(StratifiedSweepHits(
      sampler_, source, options.num_samples, options.seed, options.num_strata,
      sweep_hits_, options.cancel));
  return HitsToReliability(sweep_hits_, options.num_samples);
}

Result<std::vector<uint32_t>> MonteCarloEstimator::EstimateSweepStratumHits(
    NodeId source, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  RELCOMP_RETURN_NOT_OK(ValidateSweep(graph_, source, options.num_samples));
  if (num_strata == 0 || stratum >= num_strata) {
    return Status::InvalidArgument("sweep stratum: index out of range");
  }
  const uint32_t samples =
      StratumSampleCount(options.num_samples, num_strata, stratum);
  // An empty stratum (S > K) reaches nothing: the merge reads its empty
  // vector as all zeros.
  if (samples == 0) return std::vector<uint32_t>{};
  // Working state: sampler scratch plus the hit-count result.
  ScopedAllocation working(options.memory,
                           sampler_.WorkingBytes() +
                               graph_.num_nodes() * sizeof(uint32_t));
  std::vector<uint32_t> hits(graph_.num_nodes(), 0);
  obs::ScopedSpan sample_span(options.trace, obs::SpanKind::kSample,
                              options.trace_parent, stratum);
  Rng rng(StratumSeed(options.seed, stratum, num_strata));
  RELCOMP_RETURN_NOT_OK(sampler_.AccumulateReached(
      {.source = source}, samples, rng, hits, options.cancel));
  return hits;
}

Result<uint32_t> MonteCarloEstimator::EstimateStStratumHits(
    const ReliabilityQuery& query, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  if (!graph_.HasNode(query.source) || !graph_.HasNode(query.target)) {
    return Status::InvalidArgument("s-t stratum: query out of range");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("s-t stratum: num_samples must be positive");
  }
  if (num_strata == 0 || stratum >= num_strata) {
    return Status::InvalidArgument("s-t stratum: index out of range");
  }
  const uint32_t samples =
      StratumSampleCount(options.num_samples, num_strata, stratum);
  // Every sampled world reaches its own source; an empty stratum samples
  // nothing.
  if (query.source == query.target || samples == 0) return samples;
  ScopedAllocation working(options.memory, sampler_.WorkingBytes());
  return StStratumHits(query, stratum, num_strata, options);
}

Result<uint32_t> MonteCarloEstimator::StStratumHits(
    const ReliabilityQuery& query, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  const uint32_t samples =
      StratumSampleCount(options.num_samples, num_strata, stratum);
  if (samples == 0) return 0u;
  Rng rng(StratumSeed(options.seed, stratum, num_strata));
  return sampler_.CountHits({.source = query.source, .target = query.target},
                            samples, rng, options.cancel);
}

Result<double> MonteCarloEstimator::EstimateDistanceConstrained(
    const ReliabilityQuery& query, uint32_t max_hops,
    const EstimateOptions& options) {
  if (distance_ == nullptr) {
    distance_ = std::make_unique<DistanceConstrainedMonteCarlo>(graph_);
  }
  return distance_->Estimate(
      DistanceConstrainedQuery{query.source, query.target, max_hops},
      options.num_samples, options.seed, options.memory);
}

Result<double> MonteCarloEstimator::DoEstimate(const ReliabilityQuery& query,
                                               const EstimateOptions& options,
                                               MemoryTracker* memory) {
  ScopedAllocation working(memory, sampler_.WorkingBytes());
  if (query.source == query.target) return 1.0;

  // Stratified hit-and-miss: stratum j draws its budget slice from its own
  // derived stream, hits sum across strata — the same canonical-in-(content,
  // S) core as the source sweep (num_strata == 1 is the legacy loop,
  // bit-identical to the pre-strata path). An engine runs the same strata
  // on several threads through EstimateStStratumHits.
  const uint32_t num_strata = options.num_strata == 0 ? 1 : options.num_strata;
  uint32_t hits = 0;
  for (uint32_t j = 0; j < num_strata; ++j) {
    RELCOMP_ASSIGN_OR_RETURN(const uint32_t stratum_hits,
                             StStratumHits(query, j, num_strata, options));
    hits += stratum_hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(options.num_samples);
}

}  // namespace relcomp
