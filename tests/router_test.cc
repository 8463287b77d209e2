#include "engine/router.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace relcomp {
namespace {

using ::relcomp::testing::RandomSmallGraph;

// ---------------------------------------------------------------------------
// RouterModel: name round-trip, JSON profile, prior ordering
// ---------------------------------------------------------------------------

TEST(RouterModelTest, KindNameRoundTrips) {
  for (EstimatorKind kind :
       {EstimatorKind::kMonteCarlo, EstimatorKind::kBfsSharing,
        EstimatorKind::kProbTree, EstimatorKind::kLazyPropagationPlus,
        EstimatorKind::kRecursive, EstimatorKind::kRecursiveStratified}) {
    EstimatorKind parsed;
    ASSERT_TRUE(EstimatorKindFromName(EstimatorKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EstimatorKind parsed;
  EXPECT_FALSE(EstimatorKindFromName("NoSuchBackend", &parsed));
}

TEST(RouterModelTest, FromJsonParsesTournamentProfile) {
  const char* json = R"({
    "dataset": "lastfm",
    "backends": [
      {"kind": "MC", "converged_k": 500,
       "curve": [{"k": 250, "seconds": 1.0e-3, "variance": 2.0e-4},
                 {"k": 500, "seconds": 2.0e-3, "variance": 1.0e-4}]},
      {"kind": "FutureBackend", "curve": [{"k": 1, "seconds": 1}]},
      {"kind": "BFSSharing", "converged_k": 250,
       "curve": [{"k": 250, "seconds": 4.0e-3, "variance": 1.5e-4}]}
    ]
  })";
  Result<RouterModel> model = RouterModel::FromJson(json);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->Has(EstimatorKind::kMonteCarlo));
  EXPECT_TRUE(model->Has(EstimatorKind::kBfsSharing));
  EXPECT_EQ(model->profiles().size(), 2u);  // unknown backend skipped

  // At a measured point, interpolation is exact.
  EXPECT_DOUBLE_EQ(model->PredictSeconds(EstimatorKind::kMonteCarlo, 250), 1.0e-3);
  // Midpoint lerp between the two curve points.
  EXPECT_DOUBLE_EQ(model->PredictSeconds(EstimatorKind::kMonteCarlo, 375), 1.5e-3);
  // Beyond the last point: linear extrapolation along the last segment.
  EXPECT_DOUBLE_EQ(model->PredictSeconds(EstimatorKind::kMonteCarlo, 750), 3.0e-3);
  // Below the first point: proportional through-the-origin scaling.
  EXPECT_DOUBLE_EQ(model->PredictSeconds(EstimatorKind::kMonteCarlo, 125), 0.5e-3);
  // Variance interpolates the same way.
  EXPECT_DOUBLE_EQ(model->PredictVariance(EstimatorKind::kMonteCarlo, 500), 1.0e-4);
  // Unprofiled kind: 0 (the "no curve" sentinel).
  EXPECT_EQ(model->PredictSeconds(EstimatorKind::kProbTree, 500), 0.0);
}

TEST(RouterModelTest, FromJsonRejectsMalformedAndEmptyProfiles) {
  EXPECT_FALSE(RouterModel::FromJson("not json at all").ok());
  EXPECT_FALSE(RouterModel::FromJson("{\"backends\": 7}").ok());
  EXPECT_FALSE(RouterModel::FromJson("[1, 2, 3]").ok());
  // Parsable but no usable backend.
  EXPECT_FALSE(RouterModel::FromJson("{\"backends\": []}").ok());
  EXPECT_FALSE(
      RouterModel::FromJson(
          "{\"backends\": [{\"kind\": \"Unknown\", \"curve\": []}]}")
          .ok());
}

TEST(RouterModelTest, DefaultPriorOrdersBackendsByHints) {
  GraphFeatures graph;
  graph.num_nodes = 100;
  graph.num_edges = 400;
  graph.avg_out_degree = 4.0;
  graph.mean_edge_prob = 0.5;
  BackendCapabilities cheap;
  cheap.kind = EstimatorKind::kBfsSharing;
  cheap.hints.per_sample_edge_cost = 0.25;
  BackendCapabilities expensive;
  expensive.kind = EstimatorKind::kLazyPropagation;
  expensive.hints.per_sample_edge_cost = 1.5;
  const RouterModel model =
      RouterModel::Default({cheap, expensive}, graph, RouterOptions{});
  EXPECT_LT(model.PredictSeconds(EstimatorKind::kBfsSharing, 1000),
            model.PredictSeconds(EstimatorKind::kLazyPropagation, 1000));
  EXPECT_GT(model.PredictSeconds(EstimatorKind::kBfsSharing, 1000), 0.0);
}

// ---------------------------------------------------------------------------
// EstimatorRouter: decision levers, determinism, fallback latch
// ---------------------------------------------------------------------------

std::vector<BackendCapabilities> McOnlyCandidates() {
  BackendCapabilities mc;
  mc.kind = EstimatorKind::kMonteCarlo;
  mc.sweep = true;
  mc.distance = true;
  return {mc};
}

GraphFeatures SmallGraphFeatures() {
  GraphFeatures graph;
  graph.num_nodes = 100;
  graph.num_edges = 300;
  graph.avg_out_degree = 3.0;
  graph.mean_edge_prob = 0.5;
  return graph;
}

TEST(EstimatorRouterTest, BudgetLeverRespectsEqualAccuracyBounds) {
  obs::MetricsRegistry registry;
  RouterStaticConfig config;
  config.kind = EstimatorKind::kMonteCarlo;
  config.num_samples = 1000;
  config.num_strata = 1;
  RouterOptions options;
  const RouterModel model = RouterModel::Default(
      McOnlyCandidates(), SmallGraphFeatures(), options);
  EstimatorRouter router(model, options, config, SmallGraphFeatures(),
                         McOnlyCandidates(), /*num_threads=*/4, &registry);

  // Nearly-isolated source: eps tiny, so the equal-accuracy cut floors at
  // min_budget.
  QueryFeatures trapped;
  trapped.workload = WorkloadKind::kSt;
  trapped.out_degree = 1;
  trapped.escape_prob = 0.01;
  const QueryPlan cut = router.Decide(trapped);
  EXPECT_TRUE(cut.routed);
  EXPECT_GE(cut.num_samples, options.min_budget);
  EXPECT_LT(cut.num_samples, config.num_samples);

  // Well-connected source: eps >= 1/2 keeps the full static budget.
  QueryFeatures connected;
  connected.workload = WorkloadKind::kSt;
  connected.out_degree = 8;
  connected.escape_prob = 0.9;
  const QueryPlan full = router.Decide(connected);
  EXPECT_EQ(full.num_samples, config.num_samples);

  // Decisions are memoized pure functions of the quantized features.
  const QueryPlan repeat = router.Decide(trapped);
  EXPECT_EQ(repeat.kind, cut.kind);
  EXPECT_EQ(repeat.num_samples, cut.num_samples);
  EXPECT_EQ(repeat.num_strata, cut.num_strata);
  EXPECT_EQ(router.decisions(), 3u);
  EXPECT_EQ(router.fallbacks(), 0u);
}

TEST(EstimatorRouterTest, IncapableStaticKindRoutesToCapableCandidate) {
  obs::MetricsRegistry registry;
  RouterStaticConfig config;
  config.kind = EstimatorKind::kProbTree;  // no sweep, no distance support
  config.num_samples = 1000;
  BackendCapabilities prob_tree;
  prob_tree.kind = EstimatorKind::kProbTree;
  std::vector<BackendCapabilities> candidates = {prob_tree,
                                                 McOnlyCandidates()[0]};
  RouterOptions options;
  const RouterModel model =
      RouterModel::Default(candidates, SmallGraphFeatures(), options);
  EstimatorRouter router(model, options, config, SmallGraphFeatures(),
                         candidates, /*num_threads=*/2, &registry);

  QueryFeatures sweep;
  sweep.workload = WorkloadKind::kTopK;
  sweep.out_degree = 4;
  sweep.escape_prob = 0.8;
  const QueryPlan plan = router.Decide(sweep);
  EXPECT_EQ(plan.kind, EstimatorKind::kMonteCarlo);
  EXPECT_TRUE(plan.routed);

  QueryFeatures distance;
  distance.workload = WorkloadKind::kDistance;
  distance.out_degree = 4;
  distance.escape_prob = 0.8;
  distance.param = 3;
  EXPECT_EQ(router.Decide(distance).kind, EstimatorKind::kMonteCarlo);
}

TEST(EstimatorRouterTest, SweepPlansIgnoreWorkloadTagAndParam) {
  obs::MetricsRegistry registry;
  RouterStaticConfig config;
  config.kind = EstimatorKind::kMonteCarlo;
  config.num_samples = 800;
  RouterOptions options;
  const RouterModel model = RouterModel::Default(
      McOnlyCandidates(), SmallGraphFeatures(), options);
  EstimatorRouter router(model, options, config, SmallGraphFeatures(),
                         McOnlyCandidates(), /*num_threads=*/4, &registry);

  QueryFeatures top_k;
  top_k.workload = WorkloadKind::kTopK;
  top_k.out_degree = 6;
  top_k.escape_prob = 0.7;
  top_k.param = 5;
  QueryFeatures reliable_set = top_k;
  reliable_set.workload = WorkloadKind::kReliableSet;
  reliable_set.param = 0;

  const QueryPlan a = router.Decide(top_k);
  const QueryPlan b = router.Decide(reliable_set);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.num_strata, b.num_strata);
  EXPECT_LE(a.num_strata, options.max_strata);
}

TEST(EstimatorRouterTest, ForcedRegressionTripsStickyFallbackLatch) {
  obs::MetricsRegistry registry;
  RouterStaticConfig config;
  config.kind = EstimatorKind::kMonteCarlo;
  config.num_samples = 1000;
  RouterOptions options;
  options.fallback_gate = 0.0;          // every observation "regresses"
  options.fallback_min_observations = 1;
  options.fallback_min_seconds = 0.0;
  const RouterModel model = RouterModel::Default(
      McOnlyCandidates(), SmallGraphFeatures(), options);
  EstimatorRouter router(model, options, config, SmallGraphFeatures(),
                         McOnlyCandidates(), /*num_threads=*/2, &registry);

  QueryFeatures features;
  features.workload = WorkloadKind::kSt;
  features.out_degree = 4;
  features.escape_prob = 0.8;
  const QueryPlan routed = router.Decide(features);
  ASSERT_TRUE(routed.routed);
  ASSERT_GT(routed.predicted_seconds, 0.0);
  EXPECT_FALSE(router.fallback_engaged());

  router.RecordObserved(routed, /*observed_seconds=*/1.0);
  EXPECT_TRUE(router.fallback_engaged());

  const QueryPlan after = router.Decide(features);
  EXPECT_TRUE(after.fallback);
  EXPECT_FALSE(after.routed);
  EXPECT_EQ(after.kind, config.kind);
  EXPECT_EQ(after.num_samples, config.num_samples);
  EXPECT_EQ(router.fallbacks(), 1u);
  // Latch is sticky: a healthy later observation cannot disengage it.
  router.RecordObserved(routed, 1.0);
  EXPECT_TRUE(router.fallback_engaged());
  // The ISSUE-specified instruments exist and carry the counts.
  EXPECT_EQ(registry.GetCounter("router_fallbacks")->Value(), 1u);
  EXPECT_GE(registry
                .GetCounter("router_decisions", "kind",
                            EstimatorKindName(EstimatorKind::kMonteCarlo))
                ->Value(),
            2u);
}

// ---------------------------------------------------------------------------
// QueryEngine integration: seed/key folding, determinism matrix, router-off
// byte-identity, fallback metric
// ---------------------------------------------------------------------------

std::vector<EngineQuery> MixedWorkload(const UncertainGraph& graph) {
  std::vector<EngineQuery> queries;
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  for (NodeId s = 0; s < n && queries.size() < 48; ++s) {
    queries.push_back(EngineQuery::St(s, (s + 3) % n));
    if (s % 3 == 0) queries.push_back(EngineQuery::TopK(s, 4));
    if (s % 3 == 1) queries.push_back(EngineQuery::ReliableSet(s, 0.3));
    if (s % 4 == 0) {
      queries.push_back(EngineQuery::Distance(s, (s + 5) % n, 3));
    }
  }
  return queries;
}

EngineOptions RoutedOptions(size_t threads, bool cache) {
  EngineOptions options;
  options.num_threads = threads;
  options.kind = EstimatorKind::kMonteCarlo;
  options.num_samples = 400;
  options.num_strata = 2;
  options.seed = 20190410;
  options.enable_cache = cache;
  options.enable_router = true;
  return options;
}

void ExpectSameResults(const std::vector<EngineResult>& a,
                       const std::vector<EngineResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << "query " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "query " << i;
    EXPECT_EQ(std::memcmp(&a[i].reliability, &b[i].reliability,
                          sizeof(double)),
              0)
        << "query " << i;
    ASSERT_EQ(a[i].targets.size(), b[i].targets.size()) << "query " << i;
    for (size_t j = 0; j < a[i].targets.size(); ++j) {
      EXPECT_EQ(a[i].targets[j].node, b[i].targets[j].node);
      EXPECT_EQ(std::memcmp(&a[i].targets[j].reliability,
                            &b[i].targets[j].reliability, sizeof(double)),
                0);
    }
    EXPECT_EQ(a[i].plan.kind, b[i].plan.kind) << "query " << i;
    EXPECT_EQ(a[i].plan.num_samples, b[i].plan.num_samples) << "query " << i;
    EXPECT_EQ(a[i].plan.num_strata, b[i].plan.num_strata) << "query " << i;
  }
}

TEST(RouterEngineTest, RoutedAnswersBitIdenticalAcrossThreadsAndCaches) {
  const UncertainGraph graph = RandomSmallGraph(24, 70, 0.2, 0.9, 11);
  const std::vector<EngineQuery> queries = MixedWorkload(graph);

  std::vector<std::vector<EngineResult>> runs;
  for (size_t threads : {1u, 2u, 8u}) {
    for (bool cache : {true, false}) {
      auto engine =
          QueryEngine::Create(graph, RoutedOptions(threads, cache)).MoveValue();
      runs.push_back(engine->RunBatch(queries).MoveValue());
    }
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    ExpectSameResults(runs[0], runs[i]);
  }
  // At least one query actually ran under a routing decision.
  bool any_routed = false;
  for (const EngineResult& result : runs[0]) {
    if (result.plan.routed) any_routed = true;
  }
  EXPECT_TRUE(any_routed);
}

TEST(RouterEngineTest, BottleneckSourcesGetACutBudgetAtEqualAccuracy) {
  // Fringe sources whose one out-arc has p = 0.05 into a well-connected
  // core: every fringe answer is bounded by eps(s) = 0.05, so the router's
  // equal-accuracy cut (K' ~ 4 eps (1 - eps) K) answers the same queries
  // at a fraction of the static budget.
  constexpr NodeId kCore = 48;
  constexpr NodeId kFringe = 96;
  GraphBuilder builder(kCore + kFringe);
  for (NodeId i = 0; i < kCore; ++i) {
    builder.AddEdge(i, (i + 1) % kCore, 0.9).CheckOK();
    builder.AddEdge(i, (i + 7) % kCore, 0.7).CheckOK();
  }
  for (NodeId f = 0; f < kFringe; ++f) {
    builder.AddEdge(kCore + f, f % kCore, 0.05).CheckOK();
  }
  const UncertainGraph graph = builder.Build().MoveValue();
  std::vector<EngineQuery> queries;
  for (uint32_t repeat = 0; repeat < 6; ++repeat) {
    for (NodeId f = 0; f < kFringe; ++f) {
      queries.push_back(
          EngineQuery::St(kCore + f, (f * 13 + repeat * 17 + 5) % kCore));
    }
  }

  constexpr uint32_t kStaticK = 2000;
  std::vector<EngineResult> static_reference;
  std::vector<EngineResult> routed_reference;
  for (const bool routed : {false, true}) {
    SCOPED_TRACE(routed);
    std::vector<EngineResult>& reference =
        routed ? routed_reference : static_reference;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      EngineOptions options;
      options.num_threads = threads;
      options.kind = EstimatorKind::kMonteCarlo;
      options.num_samples = kStaticK;
      options.seed = 20190410;
      options.enable_cache = false;
      options.enable_router = routed;
      auto engine = QueryEngine::Create(graph, options).MoveValue();
      std::vector<EngineResult> results = engine->RunBatch(queries).MoveValue();
      for (const EngineResult& r : results) ASSERT_TRUE(r.ok()) << r.status;
      if (routed) {
        EXPECT_GT(engine->router()->decisions(), 0u);
        EXPECT_EQ(engine->metrics().GetCounter("router_fallbacks")->Value(),
                  0u);
        EXPECT_FALSE(engine->router()->fallback_engaged());
      }
      // Decisions are pure functions of the query, never of the schedule.
      if (threads == 1) {
        reference = std::move(results);
      } else {
        ExpectSameResults(reference, results);
      }
    }
  }

  // Equal accuracy: every routed estimate within 0.1 of the static one
  // (>> 6 sigma at the routed budget, while a broken cut overshoots it).
  // The cut is real: some plan runs under K, and the routed budget sums to
  // less than the static one.
  uint64_t routed_budget = 0;
  bool any_cut = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(routed_reference[i].reliability,
                static_reference[i].reliability, 0.1)
        << "query " << i;
    EXPECT_TRUE(routed_reference[i].plan.routed) << "query " << i;
    routed_budget += routed_reference[i].plan.num_samples;
    any_cut = any_cut || routed_reference[i].plan.num_samples < kStaticK;
  }
  EXPECT_TRUE(any_cut);
  EXPECT_LT(routed_budget, uint64_t{kStaticK} * queries.size());
}

TEST(RouterEngineTest, RouterOffReproducesLegacySeedsByteForByte) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  EngineOptions options = RoutedOptions(2, /*cache=*/true);
  options.enable_router = false;
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  ASSERT_EQ(engine->router(), nullptr);

  // The pre-router derivation, reproduced literally: sweep kinds fold
  // (sweep tag, source, kind, K); st / distance fold the query content then
  // (kind, K). No num_strata fold — that only exists under the router.
  const EngineQuery st = EngineQuery::St(1, 5);
  uint64_t expected = HashWorkloadQuery(options.seed, st);
  expected = HashCombineSeed(expected, static_cast<uint64_t>(options.kind));
  expected = HashCombineSeed(expected, options.num_samples);
  EXPECT_EQ(engine->QuerySeed(st), expected);

  const EngineQuery top_k = EngineQuery::TopK(3, 4);
  uint64_t sweep = HashCombineSeed(options.seed, 0x73776570ULL);
  sweep = HashCombineSeed(sweep, top_k.source);
  sweep = HashCombineSeed(sweep, static_cast<uint64_t>(options.kind));
  sweep = HashCombineSeed(sweep, options.num_samples);
  EXPECT_EQ(engine->QuerySeed(top_k), sweep);
  EXPECT_EQ(engine->SweepSeed(top_k.source), sweep);

  // Router-off plans echo the static knobs.
  const QueryPlan plan = engine->PlanFor(st);
  EXPECT_FALSE(plan.routed);
  EXPECT_EQ(plan.kind, options.kind);
  EXPECT_EQ(plan.num_samples, options.num_samples);
  EXPECT_EQ(plan.num_strata, options.num_strata);
}

TEST(RouterEngineTest, RoutedSeedsFoldThePlanNotTheStaticKnobs) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  auto engine =
      QueryEngine::Create(graph, RoutedOptions(2, /*cache=*/true)).MoveValue();
  ASSERT_NE(engine->router(), nullptr);

  const EngineQuery st = EngineQuery::St(2, 9);
  const QueryPlan plan = engine->PlanFor(st);
  uint64_t expected = HashWorkloadQuery(20190410, st);
  expected = HashCombineSeed(expected, static_cast<uint64_t>(plan.kind));
  expected = HashCombineSeed(expected, plan.num_samples);
  expected = HashCombineSeed(expected, plan.num_strata);
  EXPECT_EQ(engine->QuerySeed(st), expected);

  // Sweep-kind queries over one source share one plan and one seed whatever
  // their k / eta — the sweep-sharing contract survives routing.
  EXPECT_EQ(engine->QuerySeed(EngineQuery::TopK(4, 2)),
            engine->QuerySeed(EngineQuery::ReliableSet(4, 0.7)));
  const QueryPlan sweep_a = engine->PlanFor(EngineQuery::TopK(4, 2));
  const QueryPlan sweep_b = engine->PlanFor(EngineQuery::ReliableSet(4, 0.7));
  EXPECT_EQ(sweep_a.kind, sweep_b.kind);
  EXPECT_EQ(sweep_a.num_samples, sweep_b.num_samples);
  EXPECT_EQ(sweep_a.num_strata, sweep_b.num_strata);

  // The executed result reports the plan it ran under and its derived seed.
  const auto results = engine->RunBatch(std::vector<EngineQuery>{st}).MoveValue();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].seed, expected);
  EXPECT_EQ(results[0].plan.kind, plan.kind);
  EXPECT_EQ(results[0].plan.num_samples, plan.num_samples);
}

TEST(RouterEngineTest, RouterEnablesSweepWorkloadsOnIncapableStaticKind) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  EngineOptions options = RoutedOptions(2, /*cache=*/true);
  options.kind = EstimatorKind::kProbTree;  // cannot answer top-k itself

  // Router off: the sweep workload fails with NotSupported.
  EngineOptions off = options;
  off.enable_router = false;
  auto static_engine = QueryEngine::Create(graph, off).MoveValue();
  const auto failed =
      static_engine->RunBatch(std::vector<EngineQuery>{EngineQuery::TopK(3, 4)})
          .MoveValue();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(failed[0].ok());

  // Router on: the plan routes onto the capable MC candidate and succeeds.
  auto routed_engine = QueryEngine::Create(graph, options).MoveValue();
  const auto ok =
      routed_engine->RunBatch(std::vector<EngineQuery>{EngineQuery::TopK(3, 4)})
          .MoveValue();
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].ok()) << ok[0].status;
  EXPECT_EQ(ok[0].plan.kind, EstimatorKind::kMonteCarlo);
  EXPECT_TRUE(ok[0].plan.routed);
  EXPECT_EQ(ok[0].targets.size(), 4u);
}

TEST(RouterEngineTest, ForcedRegressionExercisesRouterFallbacksMetric) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  EngineOptions options = RoutedOptions(2, /*cache=*/true);
  options.router.fallback_gate = 0.0;  // every executed query "regresses"
  options.router.fallback_min_observations = 1;
  options.router.fallback_min_seconds = 0.0;
  auto engine = QueryEngine::Create(graph, options).MoveValue();

  // First batch: the first executed routed query trips the sticky latch.
  std::vector<EngineQuery> first;
  for (NodeId s = 0; s < 8; ++s) first.push_back(EngineQuery::St(s, s + 8));
  ASSERT_TRUE(engine->RunBatch(first).ok());
  EXPECT_TRUE(engine->router()->fallback_engaged());

  // Second batch: every decision is now served by the fallback.
  std::vector<EngineQuery> second;
  for (NodeId s = 8; s < 12; ++s) second.push_back(EngineQuery::St(s, s - 8));
  const auto results = engine->RunBatch(second).MoveValue();
  for (const EngineResult& result : results) {
    EXPECT_TRUE(result.plan.fallback);
    EXPECT_EQ(result.plan.kind, options.kind);
    EXPECT_EQ(result.plan.num_samples, options.num_samples);
  }
  EXPECT_GE(engine->metrics().GetCounter("router_fallbacks")->Value(),
            second.size());
  EXPECT_GE(engine->router()->decisions(),
            static_cast<uint64_t>(first.size() + second.size()));
}

TEST(RouterEngineTest, CreateRejectsMalformedRouterProfile) {
  const UncertainGraph graph = RandomSmallGraph(10, 20, 0.3, 0.8, 3);
  EngineOptions options = RoutedOptions(1, /*cache=*/true);
  options.router_profile_json = "{\"backends\": [";
  EXPECT_FALSE(QueryEngine::Create(graph, options).ok());
}

TEST(RouterEngineTest, CreateAcceptsTournamentShapedProfile) {
  const UncertainGraph graph = RandomSmallGraph(20, 50, 0.3, 0.8, 7);
  EngineOptions options = RoutedOptions(2, /*cache=*/true);
  options.router_profile_json = R"({
    "dataset": "test", "workload": "st",
    "backends": [
      {"kind": "MC", "converged_k": 500,
       "curve": [{"k": 250, "seconds": 1e-4, "variance": 2e-4},
                 {"k": 1000, "seconds": 4e-4, "variance": 5e-5}]}
    ]
  })";
  auto engine = QueryEngine::Create(graph, options).MoveValue();
  ASSERT_NE(engine->router(), nullptr);
  EXPECT_TRUE(engine->router()->model().Has(EstimatorKind::kMonteCarlo));
  const auto results =
      engine->RunBatch(std::vector<EngineQuery>{EngineQuery::St(1, 6)})
          .MoveValue();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

}  // namespace
}  // namespace relcomp
