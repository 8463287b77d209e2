// Estimator tournament: run all six estimators of the study on one dataset
// and one workload, print the comparison table, and ask the paper's decision
// tree (Figure 18) for a recommendation. A miniature version of the whole
// benchmark, runnable in seconds.
//
// Usage: estimator_tournament [dataset] — dataset in
//   {lastfm, nethept, as_topology, dblp02, dblp005, biomine}, default lastfm.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/format.h"
#include "eval/convergence.h"
#include "eval/query_gen.h"
#include "eval/recommendation.h"
#include "eval/table.h"
#include "graph/datasets.h"
#include "reliability/estimator_factory.h"

using namespace relcomp;

int main(int argc, char** argv) {
  DatasetId id = DatasetId::kLastFm;
  for (int i = 1; i < argc; ++i) {
    bool found = false;
    for (DatasetId candidate : AllDatasetIds()) {
      if (std::strcmp(argv[i], DatasetName(candidate)) == 0) {
        id = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }

  const Dataset dataset = MakeDataset(id, Scale::kTiny, /*seed=*/1).MoveValue();
  std::printf("Tournament on %s: %s\n\n", DatasetDisplayName(id),
              dataset.graph.Describe().c_str());

  QueryGenOptions qopts;
  qopts.num_pairs = 10;
  qopts.seed = 4;
  const std::vector<ReliabilityQuery> queries =
      GenerateQueries(dataset.graph, qopts).MoveValue();

  ConvergenceOptions copts;
  copts.initial_k = 250;
  copts.step_k = 250;
  copts.max_k = 2000;
  copts.repeats = 10;
  copts.dispersion_threshold = 2e-3;
  copts.seed = 12;

  TextTable table({"Estimator", "K@conv", "Reliability", "Variance (x1e-4)",
                   "Query time (ms)", "Memory (KB)"});
  FactoryOptions factory;
  factory.bfs_sharing.index_samples = copts.max_k;
  for (const EstimatorKind kind : TheSixEstimators()) {
    auto estimator = MakeEstimator(kind, dataset.graph, factory).MoveValue();
    const ConvergenceReport report =
        RunConvergence(*estimator, queries, copts).MoveValue();
    const KPoint& conv = report.FinalPoint();
    table.AddRow(
        {std::string(estimator->name()),
         report.converged() ? StrFormat("%u", report.converged_k) : ">max",
         StrFormat("%.4f", conv.avg_reliability),
         StrFormat("%.3f", conv.avg_variance * 1e4),
         StrFormat("%.3f", conv.avg_query_seconds * 1e3),
         StrFormat("%.1f", static_cast<double>(conv.peak_memory_bytes +
                                               estimator->IndexMemoryBytes()) /
                               1024.0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  ScenarioConstraints constraints;
  constraints.memory_constrained = true;
  constraints.need_fast_queries = true;
  const Recommendation rec = RecommendEstimator(constraints);
  std::printf("Recommendation for a memory-tight, latency-sensitive service:\n");
  std::printf("  %s\n", rec.explanation.c_str());
  for (EstimatorKind kind : rec.estimators) {
    std::printf("  -> %s\n", EstimatorKindName(kind));
  }
  return 0;
}
