// Figure 12: online memory usage per estimator per dataset at convergence.
// Paper's ordering: MC < LP+ < ProbTree < BFS Sharing < RHH ~= RSS.

#include <cmath>
#include <string>

#include "bench_util.h"

namespace relcomp {
namespace {

/// `bytes` in KiB to three significant digits, in fixed notation (0.0586,
/// 5.88, 588, 5880): the tiny scale's working sets are tens of KiB, which
/// two decimals of MB would all print as 0.01.
std::string KiB(double bytes) {
  const double kib = bytes / 1024.0;
  if (kib <= 0.0) return "0";
  const int magnitude = static_cast<int>(std::floor(std::log10(kib)));
  if (magnitude >= 2) {
    const double unit = std::pow(10.0, magnitude - 2);
    return StrFormat("%.0f", std::round(kib / unit) * unit);
  }
  return StrFormat("%.*f", 2 - magnitude, kib);
}

int Run() {
  const BenchConfig config = BenchConfig::FromEnv();
  bench::PrintHeader(
      "Figure 12: online memory usage at convergence",
      "increasing memory order: MC < LP+ < ProbTree < BFSSharing < RHH ~ RSS",
      config);
  ExperimentContext context(config);

  TextTable table({"Dataset", "Estimator", "Graph (KiB)", "Index (KiB)",
                   "Working peak (KiB)", "Total (KiB)"});
  for (const DatasetId id : AllDatasetIds()) {
    const Dataset* dataset = bench::Unwrap(context.GetDataset(id), "dataset");
    const double graph_bytes =
        static_cast<double>(dataset->graph.MemoryBytes());
    for (const EstimatorKind kind : TheSixEstimators()) {
      const ConvergenceReport* report =
          bench::Unwrap(context.GetConvergence(id, kind), "convergence");
      Estimator* estimator =
          bench::Unwrap(context.GetEstimator(id, kind), "estimator");
      const KPoint& conv = report->FinalPoint();
      const double index_bytes =
          static_cast<double>(estimator->IndexMemoryBytes());
      const double work_bytes = static_cast<double>(conv.peak_memory_bytes);
      table.AddRow({DatasetDisplayName(id), EstimatorKindName(kind),
                    KiB(graph_bytes), KiB(index_bytes), KiB(work_bytes),
                    KiB(graph_bytes + index_bytes + work_bytes)});
    }
  }
  bench::PrintTable(table, "fig12_memory");
  return 0;
}

}  // namespace
}  // namespace relcomp

int main() { return relcomp::Run(); }
