#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "graph/uncertain_graph.h"
#include "obs/trace.h"

namespace relcomp {

class CoinPass;

/// \brief An s-t reliability query: the probability R(s, t) that `target` is
/// reachable from `source` under possible-world semantics (Eq. 2).
struct ReliabilityQuery {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
};

/// \brief Per-call knobs shared by all estimators.
struct EstimateOptions {
  /// Number of samples K. Recursive estimators interpret this as the total
  /// sample budget they split across branches/strata.
  uint32_t num_samples = 1000;
  /// Seed for this call; equal seeds give bit-identical results.
  uint64_t seed = 0;
  /// Stratified sample partitioning: the budget K is split into this many
  /// fixed strata, stratum j drawing from StratumSeed(seed, j, num_strata).
  /// The result is a canonical function of (query content, num_strata) —
  /// NOT of thread count or execution order — so an engine may run the
  /// strata of one call on many threads (EstimateSweepStratumHits,
  /// EstimateStStratumHits) and merge bit-identically to a serial call with
  /// the same num_strata. num_strata <= 1 is the legacy unstratified path,
  /// bit-identical to pre-strata behaviour. Honored by the MC cores (sweeps
  /// and s-t DoEstimate); BFS Sharing sweeps are stratified by world
  /// *slices* of one generation, so their results are identical for every
  /// num_strata; estimators without a stratified core ignore it.
  uint32_t num_strata = 1;
  /// Optional sink for the call's working-set accounting (the paper's
  /// "online memory usage" metric). Consulted by the dispatch-surface calls
  /// (EstimateFromSource, EstimateDistanceConstrained) — Estimate() tracks
  /// internally and reports through EstimateResult instead. Never part of
  /// the determinism contract: results are identical with or without it.
  MemoryTracker* memory = nullptr;
  /// Optional per-query trace collector (engine-owned). Estimator cores that
  /// do stage-shaped work (MC sample loops, BFS Sharing world slices) emit
  /// kSample / kBfs spans into it, parented under `trace_parent`. Like
  /// `memory`, never part of the determinism contract: results are
  /// bit-identical with tracing on or off.
  obs::TraceBuffer* trace = nullptr;
  /// Span id in `trace` the estimator's spans attach under
  /// (obs::TraceBuffer::kNone = root).
  uint32_t trace_parent = obs::TraceBuffer::kNone;
  /// Optional cooperative-cancellation token (engine-owned, may be null).
  /// Cores with long sample loops poll it at stratum boundaries (MC
  /// additionally every few dozen samples) and return kDeadlineExceeded /
  /// kCancelled instead of finishing. All-or-nothing: a cancelled call
  /// never returns a partial estimate, so completed calls are bit-identical
  /// with or without a token attached (polling consumes no randomness).
  const CancelToken* cancel = nullptr;
};

/// \brief Outcome of one estimation call.
struct EstimateResult {
  /// The reliability estimate in [0, 1].
  double reliability = 0.0;
  /// Samples actually consumed (== EstimateOptions::num_samples except for
  /// degenerate early exits).
  uint32_t num_samples = 0;
  /// Wall-clock seconds spent inside the call.
  double seconds = 0.0;
  /// Peak logical bytes of the estimator's online working structures for
  /// this call (excludes the input graph and any prebuilt index; see
  /// Estimator::IndexMemoryBytes).
  size_t peak_memory_bytes = 0;
};

/// \brief Opaque artifact of an inter-query maintenance step: one prepared
/// generation (BFS Sharing's resampled worlds, Table 15's per-query cost).
///
/// Replicas hand generations to each other one way, as a
/// `std::shared_ptr<const PreparedGeneration>`: CurrentPreparedGeneration
/// reads one off a prepared replica (a sweep flight's first preparer, for
/// its stratum thieves), and AdoptPreparedGeneration installs it in O(1).
///
/// Ownership rule: a replica refills its generation in place on its next
/// inline PrepareForNextQuery only when no other handle references it (the
/// replica is the last holder); otherwise it moves to a fresh generation and
/// leaves the shared one untouched. So a generation is never written while
/// anyone else can read it, and once every other holder drops its handle,
/// the replica refills in place again.
class PreparedGeneration {
 public:
  virtual ~PreparedGeneration() = default;
};

/// \brief What an estimator answers beyond the core s-t Estimate. Every
/// caller that needs more than s-t (DispatchWorkload, the engine) reads this
/// one set.
struct EstimatorCapabilities {
  /// Source sweeps: EstimateFromSource and its stratified core
  /// EstimateSweepStratumHits (MC and BFS Sharing).
  bool sweep = false;
  /// EstimateDistanceConstrained (MC and RHH).
  bool distance = false;
  /// Current/AdoptPreparedGeneration (BFS Sharing).
  bool prepared_generations = false;
  /// EstimateStStratumHits, the s-t estimate one stratum at a time (MC).
  bool st_strata = false;
};

/// \brief Common interface of the six s-t reliability estimators.
///
/// An estimator binds to one UncertainGraph at construction and answers many
/// queries. Implementations are deterministic in EstimateOptions::seed and
/// reusable (scratch is reset per call); they are not thread-safe per
/// instance — use one instance per thread.
///
/// Beyond the core s-t Estimate, the interface carries an optional workload
/// dispatch surface (source sweeps for top-k / reliable-set, distance-
/// constrained estimation) so engine replicas can answer the whole workload
/// family of reliability/workload.h. capabilities() says which of those calls
/// a kind implements; the others return NotSupported from the defaults.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Short display name ("MC", "BFSSharing", "ProbTree", "LP+", "RHH",
  /// "RSS").
  virtual std::string_view name() const = 0;

  /// The graph this estimator answers queries over.
  virtual const UncertainGraph& graph() const = 0;

  /// Estimates R(s, t). Validates the query, times the call, and accounts
  /// the working memory; the algorithm itself is in DoEstimate.
  Result<EstimateResult> Estimate(const ReliabilityQuery& query,
                                  const EstimateOptions& options);

  /// Logical bytes of any prebuilt index kept resident for queries
  /// (BFS Sharing edge bit-vectors, ProbTree bags); 0 for index-free
  /// estimators.
  virtual size_t IndexMemoryBytes() const { return 0; }

  /// The portion of IndexMemoryBytes() held through an immutable index that
  /// may be shared with other replicas (see MakeEstimatorReplicas). Memory
  /// reports must count each shared index once, not once per replica —
  /// deduplicate by SharedIndexIdentity(). 0 for index-free estimators.
  virtual size_t SharedIndexBytes() const { return 0; }

  /// Stable identity of the shared index this replica currently holds (the
  /// index object's address), or nullptr when it holds none. Two replicas
  /// returning the same non-null identity read literally the same index.
  virtual const void* SharedIndexIdentity() const { return nullptr; }

  /// Inter-query maintenance hook. BFS Sharing must resample its possible
  /// worlds between successive queries to keep answers independent
  /// (Table 15); all other estimators are no-ops. `coins`, when not null, is
  /// an open pass the resample runs its coin pass on, so that other threads
  /// can help through CoinPass::Help; a kind with no coin pass ignores it,
  /// and the caller closes it once the prepare returns. The words are the
  /// same either way.
  virtual Status PrepareForNextQuery(uint64_t seed, CoinPass* coins = nullptr) {
    (void)seed;
    (void)coins;
    return Status::OK();
  }

  /// What this estimator answers beyond s-t (see EstimatorCapabilities).
  /// Kinds that lack a capability return NotSupported from its calls.
  virtual EstimatorCapabilities capabilities() const { return {}; }

  /// \name Prepared-generation handoff (see PreparedGeneration)
  /// @{

  /// The generation this replica currently reads. Precondition:
  /// PrepareForNextQuery or an adoption ran for the current query.
  /// Serving-thread only. Default: NotSupported.
  virtual Result<std::shared_ptr<const PreparedGeneration>>
  CurrentPreparedGeneration() const;

  /// Installs `generation` — read by CurrentPreparedGeneration on *any*
  /// replica bound to the same graph and options (replicas are
  /// interchangeable) — in O(1): bit-identical to having run
  /// PrepareForNextQuery with its seed. Serving-thread only. Default:
  /// NotSupported.
  virtual Status AdoptPreparedGeneration(
      std::shared_ptr<const PreparedGeneration> generation);

  /// @}

  /// \name Workload dispatch surface (source sweeps, distance bounds)
  /// @{

  /// Source sweep: the reliability of every node from `source` (index =
  /// node id; 0 for unreachable nodes, including any value for the source
  /// itself — callers exclude it). Deterministic in `options.seed` exactly
  /// like Estimate. Default: NotSupported.
  virtual Result<std::vector<double>> EstimateFromSource(
      NodeId source, const EstimateOptions& options);

  /// Runs stratum `stratum` of the `num_strata`-way partition of the source
  /// sweep defined by (source, options.num_samples, options.seed): per-node
  /// *hit counts* over this stratum's sample slice (index = node id). The
  /// contract that makes engine-side work stealing semantically invisible:
  /// summing every stratum's counts in index order and dividing by
  /// options.num_samples is bit-identical to EstimateFromSource with
  /// options.num_strata == num_strata — on any thread, in any claim order.
  /// options.num_samples is the TOTAL budget K (the callee derives its
  /// slice via StratumSampleCount / StratumSampleOffset) and options.seed is
  /// the sweep seed (the callee derives its stratum seed). Strata of one
  /// sweep may run on different replicas; each replica must be prepared
  /// identically first (same PrepareForNextQuery seed). A stratum with no
  /// samples returns an empty vector, which merges as all zeros. Default:
  /// NotSupported.
  virtual Result<std::vector<uint32_t>> EstimateSweepStratumHits(
      NodeId source, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options);

  /// Runs stratum `stratum` of the `num_strata`-way partition of the s-t
  /// estimate defined by (query, options.num_samples, options.seed): the
  /// number of this stratum's sampled worlds in which the target is
  /// reached. The s-t counterpart of EstimateSweepStratumHits, under the
  /// same contract: summing every stratum's hits and dividing by
  /// options.num_samples is bit-identical to Estimate with
  /// options.num_strata == num_strata, on any replica and in any order. A
  /// stratum with no samples returns 0 and samples nothing; s == t counts
  /// every sampled world. Default: NotSupported.
  virtual Result<uint32_t> EstimateStStratumHits(
      const ReliabilityQuery& query, uint32_t stratum, uint32_t num_strata,
      const EstimateOptions& options);

  /// Distance-constrained reliability R_d(s, t): reachable within at most
  /// `max_hops` hops. Deterministic in `options.seed`. Default: NotSupported.
  virtual Result<double> EstimateDistanceConstrained(
      const ReliabilityQuery& query, uint32_t max_hops,
      const EstimateOptions& options);

  /// @}

 protected:
  /// Algorithm body: returns the reliability estimate, reporting working
  /// structures to `memory`.
  virtual Result<double> DoEstimate(const ReliabilityQuery& query,
                                    const EstimateOptions& options,
                                    MemoryTracker* memory) = 0;
};

}  // namespace relcomp
