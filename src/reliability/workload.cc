#include "reliability/workload.h"

#include <cstring>

#include "common/format.h"
#include "common/rng.h"
#include "reliability/reliable_set.h"

namespace relcomp {

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSt:
      return "st";
    case WorkloadKind::kTopK:
      return "top-k";
    case WorkloadKind::kReliableSet:
      return "reliable-set";
    case WorkloadKind::kDistance:
      return "distance";
  }
  return "unknown";
}

EngineQuery EngineQuery::St(NodeId source, NodeId target) {
  EngineQuery query;
  query.workload = WorkloadKind::kSt;
  query.source = source;
  query.target = target;
  return query;
}

EngineQuery EngineQuery::TopK(NodeId source, uint32_t k) {
  EngineQuery query;
  query.workload = WorkloadKind::kTopK;
  query.source = source;
  query.k = k;
  return query;
}

EngineQuery EngineQuery::ReliableSet(NodeId source, double eta) {
  EngineQuery query;
  query.workload = WorkloadKind::kReliableSet;
  query.source = source;
  query.eta = eta;
  return query;
}

EngineQuery EngineQuery::Distance(NodeId source, NodeId target,
                                  uint32_t max_hops) {
  EngineQuery query;
  query.workload = WorkloadKind::kDistance;
  query.source = source;
  query.target = target;
  query.max_hops = max_hops;
  return query;
}

bool EngineQuery::operator==(const EngineQuery& other) const {
  // Only the fields the workload tag actually uses participate — a
  // hand-built query carrying stale values in the other fields is equal to
  // (and hashes with, see HashWorkloadQuery) its factory-built twin. eta
  // compares bitwise to stay consistent with the hash (0.0 vs -0.0 are
  // distinct queries, matching their distinct bit patterns).
  if (workload != other.workload || source != other.source) return false;
  switch (workload) {
    case WorkloadKind::kSt:
      return target == other.target;
    case WorkloadKind::kTopK:
      return k == other.k;
    case WorkloadKind::kReliableSet:
      return std::memcmp(&eta, &other.eta, sizeof(eta)) == 0;
    case WorkloadKind::kDistance:
      return target == other.target && max_hops == other.max_hops;
  }
  // Out-of-enum tag (rejected by ValidateWorkload before any engine use):
  // compare every field so equality at least stays reflexive.
  return target == other.target && k == other.k &&
         std::memcmp(&eta, &other.eta, sizeof(eta)) == 0 &&
         max_hops == other.max_hops;
}

std::string EngineQuery::Describe() const {
  switch (workload) {
    case WorkloadKind::kSt:
      return StrFormat("st(s=%u, t=%u)", source, target);
    case WorkloadKind::kTopK:
      return StrFormat("top-k(s=%u, k=%u)", source, k);
    case WorkloadKind::kReliableSet:
      return StrFormat("reliable-set(s=%u, eta=%.4f)", source, eta);
    case WorkloadKind::kDistance:
      return StrFormat("distance(s=%u, t=%u, d=%u)", source, target, max_hops);
  }
  return "unknown";
}

uint64_t HashWorkloadQuery(uint64_t seed, const EngineQuery& query) {
  // Mirrors operator==: only the tag and the fields it uses are folded, so
  // equal queries always hash equal even when their unused fields differ.
  uint64_t h = HashCombineSeed(seed, static_cast<uint64_t>(query.workload));
  h = HashCombineSeed(h, query.source);
  switch (query.workload) {
    case WorkloadKind::kSt:
      h = HashCombineSeed(h, query.target);
      break;
    case WorkloadKind::kTopK:
      h = HashCombineSeed(h, query.k);
      break;
    case WorkloadKind::kReliableSet: {
      uint64_t eta_bits = 0;
      static_assert(sizeof(eta_bits) == sizeof(query.eta));
      std::memcpy(&eta_bits, &query.eta, sizeof(eta_bits));
      h = HashCombineSeed(h, eta_bits);
      break;
    }
    case WorkloadKind::kDistance:
      h = HashCombineSeed(h, query.target);
      h = HashCombineSeed(h, query.max_hops);
      break;
  }
  return h;
}

Status ValidateWorkload(const UncertainGraph& graph, const EngineQuery& query) {
  // Reject tags outside the enum up front: downstream code (per-workload
  // stats counters, dispatch) indexes kNumWorkloadKinds-sized arrays by tag.
  if (static_cast<size_t>(query.workload) >= kNumWorkloadKinds) {
    return Status::InvalidArgument("unknown workload kind");
  }
  if (!graph.HasNode(query.source)) {
    return Status::InvalidArgument(
        StrFormat("%s: source out of range", query.Describe().c_str()));
  }
  switch (query.workload) {
    case WorkloadKind::kSt:
    case WorkloadKind::kDistance:
      if (!graph.HasNode(query.target)) {
        return Status::InvalidArgument(
            StrFormat("%s: target out of range", query.Describe().c_str()));
      }
      break;
    case WorkloadKind::kTopK:
      if (query.k == 0) {
        return Status::InvalidArgument(
            StrFormat("%s: k must be positive", query.Describe().c_str()));
      }
      break;
    case WorkloadKind::kReliableSet:
      if (!(query.eta >= 0.0 && query.eta <= 1.0)) {
        return Status::InvalidArgument(
            StrFormat("%s: eta must be in [0, 1]", query.Describe().c_str()));
      }
      break;
  }
  return Status::OK();
}

WorkloadResult DeriveFromSweep(const EngineQuery& query,
                               const std::vector<double>& reliability,
                               uint32_t num_samples) {
  WorkloadResult result;
  result.num_samples = num_samples;
  if (query.workload == WorkloadKind::kTopK) {
    result.targets = RankTopKTargets(reliability, query.source, query.k);
  } else {
    ReliableSetResult set = FilterReliableSet(reliability, query.source,
                                              query.eta, num_samples);
    result.targets = std::move(set.members);
    result.num_samples = set.num_samples;
  }
  // Working set of the derivation itself: the shared vector it scans.
  result.peak_memory_bytes = reliability.size() * sizeof(double);
  return result;
}

Status CheckWorkloadSupported(const EstimatorCapabilities& capabilities,
                              const EngineQuery& query) {
  if (query.workload == WorkloadKind::kDistance && !capabilities.distance) {
    return Status::NotSupported(
        StrFormat("%s: estimator has no distance-constrained support "
                  "(use MC or RHH)",
                  query.Describe().c_str()));
  }
  if (IsSweepWorkload(query.workload) && !capabilities.sweep) {
    return Status::NotSupported(
        StrFormat("%s: estimator has no source-sweep support "
                  "(use MC or BFSSharing)",
                  query.Describe().c_str()));
  }
  return Status::OK();
}

Result<WorkloadResult> DispatchWorkload(Estimator& replica,
                                        const EngineQuery& query,
                                        const EstimateOptions& options) {
  RELCOMP_RETURN_NOT_OK(CheckWorkloadSupported(replica.capabilities(), query));
  WorkloadResult result;
  switch (query.workload) {
    case WorkloadKind::kSt: {
      RELCOMP_ASSIGN_OR_RETURN(EstimateResult estimate,
                               replica.Estimate(query.AsSt(), options));
      result.reliability = estimate.reliability;
      result.num_samples = estimate.num_samples;
      result.peak_memory_bytes = estimate.peak_memory_bytes;
      return result;
    }
    case WorkloadKind::kDistance: {
      MemoryTracker tracker;
      EstimateOptions tracked = options;
      tracked.memory = &tracker;
      RELCOMP_ASSIGN_OR_RETURN(
          result.reliability,
          replica.EstimateDistanceConstrained(query.AsSt(), query.max_hops,
                                              tracked));
      result.num_samples = options.num_samples;
      result.peak_memory_bytes = tracker.peak_bytes();
      return result;
    }
    case WorkloadKind::kTopK:
    case WorkloadKind::kReliableSet: {
      MemoryTracker tracker;
      EstimateOptions tracked = options;
      tracked.memory = &tracker;
      RELCOMP_ASSIGN_OR_RETURN(
          std::vector<double> reliability,
          replica.EstimateFromSource(query.source, tracked));
      result = DeriveFromSweep(query, reliability, options.num_samples);
      result.peak_memory_bytes = tracker.peak_bytes();
      return result;
    }
  }
  return Status::InvalidArgument("unknown workload kind");
}

}  // namespace relcomp
