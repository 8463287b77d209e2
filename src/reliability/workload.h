#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "reliability/estimator.h"
#include "reliability/top_k.h"

namespace relcomp {

/// \brief The reliability workload family of the benchmark study. The paper
/// frames s-t reliability as one instance of a family: BFS Sharing [45] was
/// originally a top-k source sweep, reliable-set is Section 2.9, and
/// distance-constrained reliability is the query recursive sampling [20] was
/// designed for. The engine dispatches all of them through one pipeline.
enum class WorkloadKind : uint8_t {
  kSt = 0,          ///< R(s, t): probability t is reachable from s
  kTopK,            ///< k most reliable targets from s (source sweep)
  kReliableSet,     ///< all targets with reliability >= eta from s
  kDistance,        ///< R_d(s, t): reachable within at most d hops
};

inline constexpr size_t kNumWorkloadKinds = 4;

/// Short display name ("st", "top-k", "reliable-set", "distance").
const char* WorkloadKindName(WorkloadKind kind);

/// True for the workload kinds answered by one per-source reliability sweep
/// (EstimateFromSource): top-k and reliable-set. Every sweep-kind query over
/// one source is a derived view of the same vector — the engine's
/// sweep-sharing layer exploits exactly this.
inline constexpr bool IsSweepWorkload(WorkloadKind kind) {
  return kind == WorkloadKind::kTopK || kind == WorkloadKind::kReliableSet;
}

/// \brief One typed, parameterized query the engine can dispatch, cache, and
/// coalesce — a tagged variant over the four workload kinds.
///
/// The layout is flat (tag + the union of all parameter fields); equality
/// and hashing consider only the tag and the fields it uses, so the cache
/// key and the derived per-query seed are well-defined for every kind and a
/// hand-built query carrying stale values in unused fields behaves exactly
/// like its factory-built twin.
struct EngineQuery {
  WorkloadKind workload = WorkloadKind::kSt;
  NodeId source = kInvalidNode;
  /// St / Distance only.
  NodeId target = kInvalidNode;
  /// TopK only: how many targets to rank.
  uint32_t k = 0;
  /// ReliableSet only: the reliability threshold eta in [0, 1].
  double eta = 0.0;
  /// Distance only: the hop bound d.
  uint32_t max_hops = 0;

  /// \name QoS (never part of identity)
  /// Deadlines and cancellation describe *this submission*, not the answer —
  /// equality and hashing ignore them (the tag-switched operator== below
  /// never reads them), so a query with a deadline coalesces with, and is
  /// served from the cache of, the same query without one.
  /// @{
  /// Per-query deadline in milliseconds from submission; 0 uses
  /// EngineOptions::default_deadline_ms (which may itself be 0 = none).
  double deadline_ms = 0.0;
  /// Optional caller-owned cancellation handle; must outlive the engine call
  /// that carries it. The engine copies queries into cache keys and flight
  /// tables, but never dereferences this pointer after the call returns.
  const CancelToken* cancel = nullptr;
  /// @}

  EngineQuery() = default;
  /// Wraps a plain s-t query. Explicit so brace-initialized
  /// ReliabilityQuery literals keep resolving to the s-t overloads.
  explicit EngineQuery(const ReliabilityQuery& query)
      : source(query.source), target(query.target) {}

  /// \name Factory constructors, one per workload kind.
  /// @{
  static EngineQuery St(NodeId source, NodeId target);
  static EngineQuery TopK(NodeId source, uint32_t k);
  static EngineQuery ReliableSet(NodeId source, double eta);
  static EngineQuery Distance(NodeId source, NodeId target, uint32_t max_hops);
  /// @}

  /// The s-t view of this query (valid for kSt and kDistance).
  ReliabilityQuery AsSt() const { return ReliabilityQuery{source, target}; }

  bool operator==(const EngineQuery& other) const;

  /// e.g. "top-k(s=3, k=10)" — for logs and error messages.
  std::string Describe() const;
};

/// Folds every field of `query` (including the workload tag) into `seed`
/// with HashCombineSeed. Used for both the engine's content-derived
/// per-query seeds and the result-cache key hash, so two workloads over the
/// same nodes can never alias.
uint64_t HashWorkloadQuery(uint64_t seed, const EngineQuery& query);

/// Validates `query` against `graph`: node ranges for every kind, k > 0 for
/// top-k, eta in [0, 1] for reliable-set.
Status ValidateWorkload(const UncertainGraph& graph, const EngineQuery& query);

/// NotSupported when an estimator with `capabilities` cannot answer `query`'s
/// workload kind (a sweep kind without sweep support, or distance without
/// distance support); OK otherwise. Every kind answers st.
Status CheckWorkloadSupported(const EstimatorCapabilities& capabilities,
                              const EngineQuery& query);

/// \brief Polymorphic outcome of one dispatched workload query.
///
/// Scalar kinds (st, distance) fill `reliability`; sweep kinds (top-k,
/// reliable-set) fill `targets` (ranked by decreasing reliability, ties
/// toward smaller node ids, source excluded).
struct WorkloadResult {
  double reliability = 0.0;
  std::vector<ReliableTarget> targets;
  uint32_t num_samples = 0;
  /// Peak working-set bytes of the executing estimator call — reported for
  /// every kind (s-t via EstimateResult; sweeps and distance via the
  /// MemoryTracker plumbed through EstimateOptions::memory).
  size_t peak_memory_bytes = 0;
};

/// \brief Derives a sweep-kind query's answer from an already-computed
/// per-source reliability vector — the same RankTopKTargets /
/// FilterReliableSet cores DispatchWorkload runs after its own sweep, so for
/// equal vectors the derived answer is bit-identical to a direct dispatch.
/// `query` must be a sweep kind (IsSweepWorkload); `num_samples` is the
/// sample budget the sweep consumed.
WorkloadResult DeriveFromSweep(const EngineQuery& query,
                               const std::vector<double>& reliability,
                               uint32_t num_samples);

/// \brief Executes `query` on `replica` — the engine's per-worker dispatch
/// surface.
///
/// - kSt runs Estimator::Estimate (all kinds).
/// - kTopK / kReliableSet run Estimator::EstimateFromSource and rank/filter
///   with the same helpers as the standalone TopKReliableTargets* /
///   ReliableSet* APIs, so engine answers are bit-identical to them for
///   equal (source, num_samples, seed). Supported by MC and BFS Sharing.
/// - kDistance runs Estimator::EstimateDistanceConstrained (MC, RHH).
///
/// Unsupported (kind, workload) combinations return NotSupported
/// (CheckWorkloadSupported) — a per-query failure, never a crash.
Result<WorkloadResult> DispatchWorkload(Estimator& replica,
                                        const EngineQuery& query,
                                        const EstimateOptions& options);

}  // namespace relcomp
