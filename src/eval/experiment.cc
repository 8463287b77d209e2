#include "eval/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/format.h"
#include "common/timer.h"

namespace relcomp {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  uint64_t parsed = 0;
  return ParseUint64(value, &parsed) ? parsed : fallback;
}

}  // namespace

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  if (std::getenv("RELCOMP_SCALE") != nullptr) config.scale = ScaleFromEnv();
  config.num_pairs = static_cast<uint32_t>(EnvU64("RELCOMP_PAIRS", config.num_pairs));
  config.repeats = static_cast<uint32_t>(EnvU64("RELCOMP_REPEATS", config.repeats));
  config.max_k = static_cast<uint32_t>(EnvU64("RELCOMP_MAX_K", config.max_k));
  config.seed = EnvU64("RELCOMP_SEED", config.seed);
  if (const char* dir = std::getenv("RELCOMP_CACHE_DIR"); dir != nullptr) {
    config.cache_dir = dir;
  }
  if (std::getenv("RELCOMP_QUIET") != nullptr) config.verbose = false;
  return config;
}

ConvergenceOptions BenchConfig::MakeConvergenceOptions(
    bool stop_at_convergence) const {
  ConvergenceOptions options;
  options.initial_k = initial_k;
  options.step_k = step_k;
  options.max_k = max_k;
  options.repeats = repeats;
  options.dispersion_threshold = dispersion_threshold;
  options.seed = seed ^ 0xC0FFEE;
  options.stop_at_convergence = stop_at_convergence;
  return options;
}

std::string BenchConfig::Describe() const {
  return StrFormat(
      "scale=%s pairs=%u repeats=%u K=%u..%u step %u rho<%g seed=%llu "
      "(paper: 100 pairs, T=100; see EXPERIMENTS.md)",
      ScaleName(scale), num_pairs, repeats, initial_k, max_k, step_k,
      dispersion_threshold, static_cast<unsigned long long>(seed));
}

Result<const Dataset*> ExperimentContext::GetDataset(DatasetId id) {
  const int key = static_cast<int>(id);
  auto it = datasets_.find(key);
  if (it == datasets_.end()) {
    RELCOMP_ASSIGN_OR_RETURN(Dataset dataset,
                             MakeDataset(id, config_.scale, config_.seed));
    it = datasets_.emplace(key, std::move(dataset)).first;
  }
  return &it->second;
}

Result<const std::vector<ReliabilityQuery>*> ExperimentContext::GetQueries(
    DatasetId id, uint32_t hop_distance) {
  const auto key = std::make_pair(static_cast<int>(id), hop_distance);
  auto it = queries_.find(key);
  if (it == queries_.end()) {
    RELCOMP_ASSIGN_OR_RETURN(const Dataset* dataset, GetDataset(id));
    QueryGenOptions options;
    options.num_pairs = config_.num_pairs;
    options.hop_distance = hop_distance;
    options.seed = config_.seed ^ (0xABCDEFULL + hop_distance);
    RELCOMP_ASSIGN_OR_RETURN(std::vector<ReliabilityQuery> queries,
                             GenerateQueries(dataset->graph, options));
    it = queries_.emplace(key, std::move(queries)).first;
  }
  return &it->second;
}

Result<Estimator*> ExperimentContext::GetEstimator(DatasetId id,
                                                   EstimatorKind kind) {
  const auto key = std::make_pair(static_cast<int>(id), static_cast<int>(kind));
  auto it = estimators_.find(key);
  if (it == estimators_.end()) {
    RELCOMP_ASSIGN_OR_RETURN(const Dataset* dataset, GetDataset(id));
    FactoryOptions factory;
    factory.index_seed = config_.seed ^ 0x1D1CE;
    // The BFS Sharing index must cover the largest K the scan may reach
    // (the paper's L=1500 "safe bound", scaled to the configured max).
    factory.bfs_sharing.index_samples = std::max(config_.max_k, 1500u);
    RELCOMP_ASSIGN_OR_RETURN(std::unique_ptr<Estimator> estimator,
                             MakeEstimator(kind, dataset->graph, factory));
    it = estimators_.emplace(key, std::move(estimator)).first;
  }
  return it->second.get();
}

Result<const ConvergenceReport*> ExperimentContext::GetConvergence(
    DatasetId id, EstimatorKind kind, bool full_curve) {
  const auto key =
      std::make_tuple(static_cast<int>(id), static_cast<int>(kind), full_curve);
  auto it = convergence_.find(key);
  if (it != convergence_.end()) return &it->second;

  // Cross-process cache: the convergence matrix is shared by several bench
  // binaries; key every protocol knob so stale results can never be reused.
  std::string cache_path;
  if (!config_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.cache_dir, ec);
    std::string kind_name = EstimatorKindName(kind);
    for (char& c : kind_name) {
      if (c == '+') c = 'P';
    }
    cache_path = StrFormat(
        "%s/conv_%s_%s_%s_p%u_r%u_k%u-%u-%u_t%g_s%llu_f%d.bin",
        config_.cache_dir.c_str(), ScaleName(config_.scale), DatasetName(id),
        kind_name.c_str(), config_.num_pairs, config_.repeats, config_.initial_k,
        config_.step_k, config_.max_k, config_.dispersion_threshold,
        static_cast<unsigned long long>(config_.seed), full_curve ? 1 : 0);
    Result<ConvergenceReport> cached = LoadConvergenceReport(cache_path);
    if (cached.ok()) {
      it = convergence_.emplace(key, cached.MoveValue()).first;
      return &it->second;
    }
  }

  if (config_.verbose) {
    std::fprintf(stderr, "[relcomp] convergence scan: %s / %s ...\n",
                 DatasetName(id), EstimatorKindName(kind));
  }
  RELCOMP_ASSIGN_OR_RETURN(Estimator * estimator, GetEstimator(id, kind));
  RELCOMP_ASSIGN_OR_RETURN(const std::vector<ReliabilityQuery>* queries,
                           GetQueries(id));
  Timer timer;
  RELCOMP_ASSIGN_OR_RETURN(
      ConvergenceReport report,
      RunConvergence(*estimator, *queries,
                     config_.MakeConvergenceOptions(!full_curve)));
  if (config_.verbose) {
    std::fprintf(stderr, "[relcomp]   done in %.1f s (K@conv=%u)\n",
                 timer.ElapsedSeconds(), report.converged_k);
  }
  if (!cache_path.empty()) {
    const Status saved = SaveConvergenceReport(report, cache_path);
    if (!saved.ok() && config_.verbose) {
      std::fprintf(stderr, "[relcomp]   cache write failed: %s\n",
                   saved.ToString().c_str());
    }
  }
  it = convergence_.emplace(key, std::move(report)).first;
  return &it->second;
}

Result<const std::vector<double>*> ExperimentContext::GetGroundTruth(
    DatasetId id) {
  const int key = static_cast<int>(id);
  auto it = ground_truth_.find(key);
  if (it == ground_truth_.end()) {
    RELCOMP_ASSIGN_OR_RETURN(
        const ConvergenceReport* mc,
        GetConvergence(id, EstimatorKind::kMonteCarlo, /*full_curve=*/false));
    const KPoint* point =
        mc->converged() ? mc->FindK(mc->converged_k) : &mc->FinalPoint();
    it = ground_truth_.emplace(key, point->per_pair_reliability).first;
  }
  return &it->second;
}

}  // namespace relcomp
