#include "load.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"

namespace relbench {

namespace {

using relcomp::EngineQuery;
using relcomp::EngineResult;
using relcomp::StopwatchNs;

/// What one caller saw, summed into the RepOutcome after the callers join.
struct CallerTotals {
  std::vector<double> call_ms;
  size_t ok = 0;
  double engine_busy_s = 0.0;
};

/// Records one RunBatch reply for the queries [begin, begin + n): their
/// digests, and with `keep` the answers themselves. A failed or short reply
/// gives each of its queries the failing status.
void Deliver(relcomp::Result<std::vector<EngineResult>>& reply,
             const std::vector<EngineQuery>& queries, size_t begin, size_t n,
             bool keep, RepOutcome& out, CallerTotals& totals) {
  for (size_t i = 0; i < n; ++i) {
    EngineResult result;
    if (reply.ok() && reply->size() == n) {
      result = std::move((*reply)[i]);
    } else {
      result.query = queries[begin + i];
      result.status = reply.ok() ? relcomp::Status::Internal("short reply")
                                 : reply.status();
    }
    if (result.ok()) ++totals.ok;
    totals.engine_busy_s += result.seconds;
    out.digests[begin + i] = AnswerDigest(result);
    if (keep) out.results[begin + i] = std::move(result);
  }
}

}  // namespace

uint64_t AnswerDigest(const EngineResult& result) {
  auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  uint64_t digest = relcomp::HashCombineSeed(
      static_cast<uint64_t>(result.status.code()),
      result.ok() ? bits(result.reliability) : 0);
  for (const relcomp::ReliableTarget& target : result.targets) {
    digest = relcomp::HashCombineSeed(digest, target.node);
    digest = relcomp::HashCombineSeed(digest, bits(target.reliability));
  }
  return digest;
}

relcomp::Result<RepSetup> SetUp(const WorkloadSpec& spec,
                                relcomp::Scale scale) {
  RepSetup setup;
  relcomp::Timer timer;
  RELCOMP_ASSIGN_OR_RETURN(relcomp::Dataset dataset,
                           relcomp::MakeDataset(spec.dataset, scale,
                                                kDatasetSeed));
  setup.dataset = std::make_unique<relcomp::Dataset>(std::move(dataset));
  setup.dataset_s = timer.ElapsedSeconds();
  timer.Restart();
  RELCOMP_ASSIGN_OR_RETURN(
      setup.engine, relcomp::QueryEngine::Create(setup.dataset->graph,
                                                 EngineOptionsFor(spec)));
  setup.create_s = timer.ElapsedSeconds();
  return setup;
}

RepOutcome Drive(const WorkloadSpec& spec, relcomp::QueryEngine& engine,
                 const std::vector<EngineQuery>& queries,
                 std::vector<std::unique_ptr<SpanBuffer>>* spans) {
  const bool traced = spans != nullptr;
  RepOutcome out;
  out.digests.resize(queries.size());
  if (traced) out.results.resize(queries.size());
  out.before = Scrape(engine.metrics().ExportJson());
  SpanBuffer* main_buffer = nullptr;
  if (traced) {
    if (spans->empty()) spans->push_back(std::make_unique<SpanBuffer>(0));
    main_buffer = spans->front().get();
  }

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t wall_start = StopwatchNs::Now();
  std::vector<CallerTotals> totals(spec.callers);
  {
    ScopedSpan rep(main_buffer, "bench.rep", kNoSpan, 0);
    std::vector<SpanBuffer*> buffers(spec.callers, nullptr);
    for (size_t c = 0; traced && c < spec.callers; ++c) {
      spans->push_back(std::make_unique<SpanBuffer>(
          static_cast<uint32_t>(spans->size())));
      buffers[c] = spans->back().get();
    }
    // Closed loop: each caller takes the next chunk, waits for its reply,
    // then takes the next one.
    std::atomic<size_t> next{0};
    const uint64_t rep_id = rep.id();
    auto caller = [&](size_t c) {
      for (size_t call = next++; call * spec.chunk < queries.size();
           call = next++) {
        const size_t begin = call * spec.chunk;
        const size_t n = std::min(spec.chunk, queries.size() - begin);
        const std::vector<EngineQuery> chunk(queries.begin() + begin,
                                             queries.begin() + begin + n);
        ScopedSpan span(buffers[c], "bench.call", rep_id, call);
        const uint64_t sent = StopwatchNs::Now();
        relcomp::Result<std::vector<EngineResult>> reply =
            engine.RunBatch(chunk);
        totals[c].call_ms.push_back(
            static_cast<double>(StopwatchNs::Now() - sent) * 1e-6);
        Deliver(reply, queries, begin, n, traced, out, totals[c]);
      }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < spec.callers; ++c) threads.emplace_back(caller, c);
    for (std::thread& thread : threads) thread.join();
  }
  out.wall_s = static_cast<double>(StopwatchNs::Now() - wall_start) * 1e-9;
  out.cpu_s = ProcessCpuSeconds() - cpu_start;
  out.after = Scrape(engine.metrics().ExportJson());
  for (const CallerTotals& caller : totals) {
    out.call_ms.insert(out.call_ms.end(), caller.call_ms.begin(),
                       caller.call_ms.end());
    out.ok += caller.ok;
    out.engine_busy_s += caller.engine_busy_s;
  }
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void ResetPeakRss() {
  // Hand the previous repetition's freed heap back first, so the watermark
  // restarts from live memory and every repetition measures the same thing.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace relbench
