#include "reliability/estimator.h"

#include "common/format.h"
#include "common/timer.h"

namespace relcomp {

namespace {
Status NoPreparedGenerations(std::string_view name) {
  return Status::NotSupported(
      StrFormat("%.*s has no prepared-generation support",
                static_cast<int>(name.size()), name.data()));
}
}  // namespace

Result<EstimateResult> Estimator::Estimate(const ReliabilityQuery& query,
                                           const EstimateOptions& options) {
  const UncertainGraph& g = graph();
  if (!g.HasNode(query.source) || !g.HasNode(query.target)) {
    return Status::InvalidArgument(
        StrFormat("query (%u, %u) out of range for graph with %zu nodes",
                  query.source, query.target, g.num_nodes()));
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }

  MemoryTracker tracker;
  Timer timer;
  RELCOMP_ASSIGN_OR_RETURN(double reliability,
                           DoEstimate(query, options, &tracker));
  EstimateResult result;
  result.reliability = reliability;
  result.num_samples = options.num_samples;
  result.seconds = timer.ElapsedSeconds();
  result.peak_memory_bytes = tracker.peak_bytes();
  return result;
}

Result<std::shared_ptr<const PreparedGeneration>>
Estimator::CurrentPreparedGeneration() const {
  return NoPreparedGenerations(name());
}

Status Estimator::AdoptPreparedGeneration(
    std::shared_ptr<const PreparedGeneration> generation) {
  (void)generation;
  return NoPreparedGenerations(name());
}

Result<std::vector<double>> Estimator::EstimateFromSource(
    NodeId source, const EstimateOptions& options) {
  (void)source;
  (void)options;
  return Status::NotSupported(
      StrFormat("%.*s does not support source-sweep workloads "
                "(top-k / reliable-set need MC or BFSSharing)",
                static_cast<int>(name().size()), name().data()));
}

Result<std::vector<uint32_t>> Estimator::EstimateSweepStratumHits(
    NodeId source, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  (void)source;
  (void)stratum;
  (void)num_strata;
  (void)options;
  return Status::NotSupported(
      StrFormat("%.*s does not support stratified sweeps "
                "(use MC or BFSSharing)",
                static_cast<int>(name().size()), name().data()));
}

Result<uint32_t> Estimator::EstimateStStratumHits(
    const ReliabilityQuery& query, uint32_t stratum, uint32_t num_strata,
    const EstimateOptions& options) {
  (void)query;
  (void)stratum;
  (void)num_strata;
  (void)options;
  return Status::NotSupported(
      StrFormat("%.*s has no stratified s-t core (use MC)",
                static_cast<int>(name().size()), name().data()));
}

Result<double> Estimator::EstimateDistanceConstrained(
    const ReliabilityQuery& query, uint32_t max_hops,
    const EstimateOptions& options) {
  (void)query;
  (void)max_hops;
  (void)options;
  return Status::NotSupported(
      StrFormat("%.*s does not support distance-constrained workloads "
                "(use MC or RHH)",
                static_cast<int>(name().size()), name().data()));
}

}  // namespace relcomp
