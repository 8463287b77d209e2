// Tables 9-14: online running time per query at each estimator's convergence
// K, at the fixed K=1000, and per sample. Findings: RHH/RSS fastest at
// convergence (fewer samples needed); ProbTree/LP+ in the middle; BFS
// Sharing ~4x slower than MC (no early termination of its fixpoint);
// per-sample cost is ~constant in K, i.e. total time is linear in K —
// contradicting [45]'s K-independence claim.

#include "bench_util.h"

namespace relcomp {
namespace {

int Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  bench::PrintHeader(
      "Tables 9-14: running time at convergence / at K=1000 / per sample",
      "recursive estimators are fastest at convergence; BFS Sharing is ~4x "
      "slower than MC; every method's time grows linearly with K",
      config);
  ExperimentContext context(config);
  const uint32_t fixed_k = 1000;

  for (const DatasetId id : AllDatasetIds()) {
    const auto* queries = bench::Unwrap(context.GetQueries(id), "queries");
    TextTable table({"Estimator", "K@conv", "Time@conv (s)", "Time@1000 (s)",
                     "Per sample (ms)"});
    double mc_conv_time = 0.0;
    double bfs_conv_time = 0.0;
    for (const EstimatorKind kind : TheSixEstimators()) {
      const ConvergenceReport* report =
          bench::Unwrap(context.GetConvergence(id, kind), "convergence");
      const KPoint& conv = report->FinalPoint();
      Estimator* estimator =
          bench::Unwrap(context.GetEstimator(id, kind), "estimator");
      const KPoint at_1000 = bench::Unwrap(
          MeasureAtK(*estimator, *queries, fixed_k,
                     std::max<uint32_t>(2, config.repeats / 2),
                     config.seed ^ 0x77),
          "measure@1000");
      if (kind == EstimatorKind::kMonteCarlo) mc_conv_time = conv.avg_query_seconds;
      if (kind == EstimatorKind::kBfsSharing) bfs_conv_time = conv.avg_query_seconds;
      table.AddRow(
          {EstimatorKindName(kind),
           report->converged() ? StrFormat("%u", report->converged_k)
                               : StrFormat(">%u", config.max_k),
           bench::Fmt(conv.avg_query_seconds, "%.6f"),
           bench::Fmt(at_1000.avg_query_seconds, "%.6f"),
           bench::Fmt(conv.avg_query_seconds * 1e3 / conv.k, "%.6f")});
    }
    std::printf("--- %s ---\n", DatasetDisplayName(id));
    bench::PrintTable(table, std::string("tab09_14_") + DatasetName(id));
    if (mc_conv_time > 0.0) {
      std::printf("BFSSharing / MC time ratio at convergence: %.2fx "
                  "(paper: ~4x)\n\n",
                  bfs_conv_time / mc_conv_time);
    }
  }
  return 0;
}

}  // namespace
}  // namespace relcomp

int main() { return relcomp::Run(); }
