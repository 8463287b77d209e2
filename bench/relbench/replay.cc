#include "replay.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "reliability/estimator_factory.h"

namespace relbench {

namespace {

using relcomp::EngineQuery;
using relcomp::EngineResult;
using relcomp::ReliableTarget;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameTargets(const std::vector<ReliableTarget>& a,
                 const std::vector<ReliableTarget>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || !SameBits(a[i].reliability, b[i].reliability)) {
      return false;
    }
  }
  return true;
}

struct QueryHash {
  size_t operator()(const EngineQuery& query) const {
    return static_cast<size_t>(relcomp::HashWorkloadQuery(0, query));
  }
};

/// One replay task: a scalar query, or every distinct sweep-kind query of
/// one source (one sweep, one derive per query — the engine's recipe).
struct Unit {
  bool sweep = false;
  std::vector<size_t> members;  ///< indices into the results
};

std::vector<Unit> DistinctUnits(const std::vector<EngineResult>& results) {
  std::vector<Unit> units;
  std::unordered_set<EngineQuery, QueryHash> seen;
  std::unordered_map<relcomp::NodeId, size_t> sweep_unit;
  for (size_t i = 0; i < results.size(); ++i) {
    const EngineResult& result = results[i];
    if (!result.ok() || !seen.insert(result.query).second) continue;
    if (relcomp::IsSweepWorkload(result.query.workload)) {
      const auto [it, fresh] =
          sweep_unit.emplace(result.query.source, units.size());
      if (fresh) units.push_back(Unit{true, {}});
      units[it->second].members.push_back(i);
    } else {
      units.push_back(Unit{false, {i}});
    }
  }
  return units;
}

}  // namespace

ReplayOutcome Replay(const relcomp::QueryEngine& engine,
                     const relcomp::UncertainGraph& graph,
                     const relcomp::EngineOptions& options,
                     const std::vector<EngineResult>& results, size_t threads,
                     std::vector<std::unique_ptr<SpanBuffer>>* spans) {
  ReplayOutcome out;
  const std::vector<Unit> units = DistinctUnits(results);
  std::vector<std::unique_ptr<relcomp::Estimator>> replicas;
  std::vector<SpanBuffer*> buffers;
  for (size_t t = 0; t < threads; ++t) {
    relcomp::Timer timer;
    relcomp::Result<std::unique_ptr<relcomp::Estimator>> replica =
        relcomp::MakeEstimator(options.kind, graph, options.factory);
    if (!replica.ok()) {
      // Nothing can be reproduced: every distinct query counts as a mismatch.
      for (const Unit& unit : units) out.mismatches += unit.members.size();
      return out;
    }
    out.index_build_s.push_back(timer.ElapsedSeconds());
    replicas.push_back(replica.MoveValue());
    spans->push_back(
        std::make_unique<SpanBuffer>(static_cast<uint32_t>(spans->size())));
    buffers.push_back(spans->back().get());
  }

  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> replayed{0};
  std::atomic<uint64_t> samples{0};
  auto worker = [&](size_t t) {
    relcomp::Estimator& estimator = *replicas[t];
    SpanBuffer* buffer = buffers[t];
    for (size_t u = next++; u < units.size(); u = next++) {
      const Unit& unit = units[u];
      const EngineResult& lead = results[unit.members.front()];
      const EngineQuery& query = lead.query;
      const relcomp::QueryPlan plan = engine.PlanFor(query);
      relcomp::EstimateOptions estimate;
      estimate.num_samples = plan.num_samples;
      estimate.seed = engine.QuerySeed(query);
      estimate.num_strata = plan.num_strata;
      replayed += unit.members.size();

      ScopedSpan root(buffer, "bench.replay", kNoSpan, unit.members.front());
      relcomp::Status prepared;
      {
        ScopedSpan span(buffer, "reliability.prepare", root.id(),
                        unit.members.front());
        prepared = estimator.PrepareForNextQuery(engine.PrepareSeed(query));
      }
      if (!prepared.ok()) {
        mismatches += unit.members.size();
        continue;
      }
      if (unit.sweep) {
        relcomp::Result<std::vector<double>> sweep;
        {
          ScopedSpan span(buffer, "reliability.sweep", root.id(),
                          unit.members.front());
          sweep = estimator.EstimateFromSource(query.source, estimate);
        }
        for (const size_t m : unit.members) {
          ScopedSpan span(buffer, "reliability.derive", root.id(), m);
          const bool same =
              sweep.ok() &&
              SameTargets(relcomp::DeriveFromSweep(results[m].query, *sweep,
                                                   plan.num_samples)
                              .targets,
                          results[m].targets);
          if (!same) ++mismatches;
        }
      } else if (query.workload == relcomp::WorkloadKind::kDistance) {
        relcomp::Result<double> value;
        {
          ScopedSpan span(buffer, "reliability.distance", root.id(),
                          unit.members.front());
          value = estimator.EstimateDistanceConstrained(query.AsSt(),
                                                        query.max_hops, estimate);
        }
        if (!value.ok() || !SameBits(*value, lead.reliability)) ++mismatches;
      } else {
        relcomp::Result<relcomp::EstimateResult> value;
        {
          ScopedSpan span(buffer, "reliability.estimate", root.id(),
                          unit.members.front());
          value = estimator.Estimate(query.AsSt(), estimate);
        }
        if (!value.ok() || !SameBits(value->reliability, lead.reliability)) {
          ++mismatches;
        } else {
          samples += value->num_samples;
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : pool) thread.join();
  out.replayed = replayed;
  out.mismatches += mismatches;
  out.samples = samples;
  return out;
}

}  // namespace relbench
