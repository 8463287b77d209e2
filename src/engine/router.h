#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "reliability/estimator.h"
#include "reliability/estimator_factory.h"
#include "reliability/workload.h"

namespace relcomp {

/// \brief One routing decision: the execution knobs the engine applies to a
/// query instead of the static EngineOptions defaults.
///
/// The chosen (kind, num_samples, num_strata) fold into the query's derived
/// seed and its cache keys exactly as the static knobs do, so a decision is
/// part of the query's identity: the same decision produces bit-identical
/// answers at any thread count, and distinct decisions can never alias one
/// another in the result or sweep caches.
struct QueryPlan {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Sample budget K for this query.
  uint32_t num_samples = 1000;
  /// Stratified partitioning S of the budget (see EngineOptions::num_strata).
  uint32_t num_strata = 1;
  /// True when the router produced this plan (it may still equal the static
  /// knobs); false for the static default / router-off path.
  bool routed = false;
  /// True when the plan was served by the paper-faithful fallback latch
  /// (predicted-vs-observed latency regressed past the gate).
  bool fallback = false;
  /// The cost model's latency prediction for this plan, in seconds (0 when
  /// the model has no curve for the kind). Feeds the fallback gate.
  double predicted_seconds = 0.0;
};

/// The paper-faithful static configuration the router falls back to (and
/// measures its candidates against): the engine's EngineOptions knobs.
struct RouterStaticConfig {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  uint32_t num_samples = 1000;
  uint32_t num_strata = 1;
};

/// \brief Routing knobs (EngineOptions::router).
struct RouterOptions {
  /// Fallback gate: the observed/predicted latency ratio a routed query must
  /// exceed to count as a regression. Generous by default — the latch
  /// targets sustained order-of-magnitude regressions (the Kepler-style
  /// safety net), never noise; the Default cost model's absolute scale is a
  /// prior, not a measurement.
  double fallback_gate = 50.0;
  /// Consecutive regressing routed queries required to trip the latch.
  uint64_t fallback_min_observations = 64;
  /// Queries faster than this many seconds never count toward the latch
  /// (too small to judge a regression against scheduler noise).
  double fallback_min_seconds = 0.05;
  /// Hysteresis: a candidate backend replaces the static kind only when its
  /// predicted latency improves on the static kind's by at least this
  /// fraction, so model noise near a tie cannot flap the decision.
  double hysteresis_margin = 0.10;
  /// Floor on the routed sample budget K (the equal-accuracy budget cut
  /// never goes below this).
  uint32_t min_budget = 64;
  /// Ceiling on the routed stratum count S.
  uint32_t max_strata = 64;
  /// Sweeps predicted cheaper than this many seconds are not worth the
  /// stratum-scheduler overhead and keep the static S.
  double stratify_min_seconds = 1e-3;
  /// Seconds one edge visit costs in RouterModel::Default's prior (only
  /// used when no calibrated profile is loaded; relative ordering between
  /// backends is what routing consumes).
  double edge_visit_seconds = 2e-9;
};

/// Graph-level features precomputed once at QueryEngine::Create.
struct GraphFeatures {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  double avg_out_degree = 0.0;
  double mean_edge_prob = 0.0;
};

/// Per-query features the router decides from. All fields are pure functions
/// of the query content and construction-time graph state — never of thread
/// count, load, or time — which is what keeps decisions deterministic.
struct QueryFeatures {
  WorkloadKind workload = WorkloadKind::kSt;
  /// Out-degree of the query's source node.
  uint32_t out_degree = 0;
  /// Escape probability eps(s) = 1 - prod_{e in out(s)} (1 - p_e): the
  /// probability at least one out-edge of the source exists. Every s-t path
  /// leaves s through some out-edge, so R(s, t) <= eps(s) for every t —
  /// a sound per-source upper bound on any answer, which is what licenses
  /// the equal-accuracy budget cut (see EstimatorRouter).
  double escape_prob = 0.0;
  /// Workload parameter: top-k's k, distance's d, 0 otherwise. Ignored for
  /// sweep kinds (their plan must be shared across k / eta — the
  /// sweep-sharing contract).
  uint32_t param = 0;
};

/// What one candidate backend can do, probed from a live replica at
/// QueryEngine::Create, plus its self-reported cost hints.
struct BackendCapabilities {
  EstimatorKind kind = EstimatorKind::kMonteCarlo;
  /// Estimator::capabilities().sweep and .distance of the backend.
  bool sweep = false;
  bool distance = false;
  CostHints hints;
};

/// \brief Calibrated piecewise-linear cost model: per-backend latency and
/// accuracy curves in the sample budget K.
///
/// Two constructors: FromJson loads the machine-readable profile
/// `examples/estimator_tournament --json` emits (measured convergence
/// curves — retrainable without recompiling), Default builds a prior from
/// each backend's CostHints and the graph's size. Predictions are consumed
/// *relatively* (candidate A vs candidate B at the same K) and by the
/// generously-gated fallback latch, so a profile calibrated on one dataset
/// transfers: shape and ordering matter, absolute scale does not.
class RouterModel {
 public:
  struct CurvePoint {
    double k = 0.0;
    double seconds = 0.0;
    double variance = 0.0;
  };
  struct BackendProfile {
    EstimatorKind kind = EstimatorKind::kMonteCarlo;
    /// Sorted by k, at least one point.
    std::vector<CurvePoint> curve;
    double converged_k = 0.0;
  };

  RouterModel() = default;

  /// Prior model from CostHints: seconds(K) = edge_visit_seconds *
  /// (per_query_edge_cost * m + per_sample_edge_cost * K * m_sampled), with
  /// m_sampled the expected sampled-subgraph edge count; variance(K) =
  /// 0.25 / K (the MC worst case).
  static RouterModel Default(const std::vector<BackendCapabilities>& backends,
                             const GraphFeatures& graph,
                             const RouterOptions& options);

  /// Parses the tournament profile. Backends whose kind string is unknown
  /// are skipped; a profile with no usable backend is an error, as is
  /// malformed JSON.
  static Result<RouterModel> FromJson(std::string_view json);

  bool Has(EstimatorKind kind) const { return Find(kind) != nullptr; }

  /// Piecewise-linear interpolation over the kind's curve; linear
  /// extrapolation beyond the last point, proportional scaling below the
  /// first. Returns 0 when the model has no curve for the kind.
  double PredictSeconds(EstimatorKind kind, double k) const;
  double PredictVariance(EstimatorKind kind, double k) const;

  const std::vector<BackendProfile>& profiles() const { return profiles_; }

 private:
  const BackendProfile* Find(EstimatorKind kind) const;
  static double Interpolate(const std::vector<CurvePoint>& curve, double k,
                            double CurvePoint::*field);

  std::vector<BackendProfile> profiles_;
};

/// \brief Per-query (backend, budget, strata) selection from the calibrated
/// cost model, with a paper-faithful fallback.
///
/// Decisions are a *pure function* of (model, options, static config, graph
/// features, quantized query features): the live latency histograms feed
/// only the fallback latch, never the decision itself — so with the latch
/// disengaged, a routed engine answers bit-identically at any thread count
/// (the decision memo is plain memoization, not state).
///
/// The three levers, each accuracy-preserving:
///  - Budget: R(s, t) <= eps(s) for every t, and x(1-x) is increasing on
///    [0, 1/2], so a budget K' = 4 eps (1 - eps) K keeps the worst-case
///    sampling variance eps(1-eps)/K' <= 0.25/K — no worse than the static
///    budget's worst case over the whole query space. Clamped to
///    [min_budget, K].
///  - Backend: switch away from the static kind only when the model predicts
///    at least `hysteresis_margin` improvement at the routed K — or when the
///    static kind cannot answer the workload at all (then the cheapest
///    capable candidate *enables* it instead of failing).
///  - Strata: sweeps predicted above stratify_min_seconds get
///    S = max(static S, 2 * num_threads) (capped at max_strata), so one hot
///    sweep parallelizes across the machine through the existing stratum
///    work-stealing scheduler.
///
/// Fallback latch: after fallback_min_observations *consecutive* routed
/// queries each observed at > fallback_gate x their prediction (and above
/// the fallback_min_seconds floor), the latch engages — sticky for the
/// engine's lifetime — and every later decision is the paper-faithful static
/// configuration, counted in `router_fallbacks`. The latch is the one
/// deliberately run-dependent escape hatch; with the default gate it only
/// trips under sustained order-of-magnitude mispredictions.
///
/// Metrics (ISSUE-specified names): `router_decisions{kind=...}` — one per
/// Decide call, labeled with the chosen backend; `router_fallbacks` —
/// decisions served by the latch; `router_predicted_vs_actual` — histogram
/// of 1000 x observed/predicted (milli-ratio, so 1000 = perfect).
///
/// Thread-safe: Decide and RecordObserved may race freely across workers.
class EstimatorRouter {
 public:
  /// `registry` is not owned and must outlive the router.
  EstimatorRouter(RouterModel model, RouterOptions options,
                  RouterStaticConfig static_config, GraphFeatures graph,
                  std::vector<BackendCapabilities> candidates,
                  size_t num_threads, obs::MetricsRegistry* registry);

  /// The routing decision for `features`. Deterministic in the quantized
  /// features while the fallback latch is disengaged.
  QueryPlan Decide(const QueryFeatures& features);

  /// The paper-faithful static plan (the router-off / fallback behavior).
  QueryPlan StaticPlan() const;

  /// Feeds one executed routed query's observed latency to the fallback
  /// gate and the predicted-vs-actual histogram. Call once per estimator
  /// invocation (never for cache hits or coalesced waiters — they observed
  /// someone else's latency).
  void RecordObserved(const QueryPlan& plan, double observed_seconds);

  bool fallback_engaged() const {
    return fallback_engaged_.load(std::memory_order_relaxed);
  }
  uint64_t decisions() const { return decisions_total_; }
  uint64_t fallbacks() const { return fallbacks_->Value(); }

  const RouterModel& model() const { return model_; }
  const RouterOptions& options() const { return options_; }

 private:
  /// Quantizes features into the memo key: (sweep-collapsed workload,
  /// log2 degree bucket, eps rounded *up* to 1/64ths — conservative for the
  /// budget cut — param for non-sweep kinds). Coarse on purpose: quantized
  /// decisions are stable under feature noise, and same-bucket sources
  /// share a plan.
  uint64_t QuantizeKey(const QueryFeatures& features, double* eps_bucket,
                       bool* is_sweep) const;

  QueryPlan Compute(const QueryFeatures& features, double eps, bool is_sweep);

  const BackendCapabilities* FindCandidate(EstimatorKind kind) const;
  bool Capable(const BackendCapabilities& candidate, WorkloadKind workload,
               bool is_sweep) const;

  const RouterModel model_;
  const RouterOptions options_;
  const RouterStaticConfig static_;
  const GraphFeatures graph_;
  const std::vector<BackendCapabilities> candidates_;
  const size_t num_threads_;

  std::mutex memo_mutex_;
  std::unordered_map<uint64_t, QueryPlan> memo_;

  std::atomic<bool> fallback_engaged_{false};
  std::atomic<uint64_t> consecutive_regressions_{0};
  std::atomic<uint64_t> decisions_total_{0};

  obs::MetricsRegistry* registry_;
  obs::Counter* fallbacks_;
  obs::Histogram* predicted_vs_actual_;
};

/// Parses the display name EstimatorKindName produces back into a kind
/// ("MC", "BFSSharing", ...); false when unknown.
bool EstimatorKindFromName(std::string_view name, EstimatorKind* kind);

}  // namespace relcomp

