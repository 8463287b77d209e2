#include "reference.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

namespace relbench {

namespace {

/// SplitMix64 as a stream generator: the reference's own randomness,
/// deliberately not the library's Rng.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  bool Coin(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

uint64_t PairSeed(uint64_t seed, const ScalarPair& pair) {
  Stream mix(seed ^ ((static_cast<uint64_t>(pair.source) << 32) | pair.target));
  Stream again(mix.Next() ^ pair.max_hops);
  return again.Next();
}

/// One thread's BFS scratch. A node is visited in the current world when
/// its stamp equals the world's epoch, so nothing is cleared between worlds.
class WorldSampler {
 public:
  explicit WorldSampler(const relcomp::UncertainGraph& graph)
      : graph_(graph), stamp_(graph.num_nodes(), 0) {}

  double Reliability(const ScalarPair& pair, uint32_t k_ref, uint64_t seed) {
    if (pair.source == pair.target) return 1.0;
    Stream stream(PairSeed(seed, pair));
    uint32_t hits = 0;
    for (uint32_t world = 0; world < k_ref; ++world) {
      hits += Reaches(pair, stream) ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(k_ref);
  }

 private:
  /// BFS level by level in one lazily sampled world. Every edge is examined
  /// at most once per world (when its tail is expanded), so flipping its
  /// coin there samples the world exactly.
  bool Reaches(const ScalarPair& pair, Stream& stream) {
    if (++epoch_ == 0) {  // stamp wrap-around: start a fresh epoch space
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    frontier_.assign(1, pair.source);
    stamp_[pair.source] = epoch_;
    for (uint32_t depth = 0; !frontier_.empty(); ++depth) {
      if (pair.max_hops > 0 && depth >= pair.max_hops) return false;
      next_.clear();
      for (const relcomp::NodeId v : frontier_) {
        for (const relcomp::AdjEntry& edge : graph_.OutEdges(v)) {
          if (stamp_[edge.neighbor] == epoch_ || !stream.Coin(edge.prob)) {
            continue;
          }
          if (edge.neighbor == pair.target) return true;
          stamp_[edge.neighbor] = epoch_;
          next_.push_back(edge.neighbor);
        }
      }
      frontier_.swap(next_);
    }
    return false;
  }

  const relcomp::UncertainGraph& graph_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<relcomp::NodeId> frontier_;
  std::vector<relcomp::NodeId> next_;
};

bool ReadCache(const std::string& path, const std::vector<ScalarPair>& pairs,
               uint32_t k_ref, uint64_t seed, std::vector<double>* out) {
  std::ifstream in(path);
  uint32_t file_k = 0;
  uint64_t file_seed = 0;
  size_t count = 0;
  if (!(in >> file_k >> file_seed >> count) || file_k != k_ref ||
      file_seed != seed || count != pairs.size()) {
    return false;
  }
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    ScalarPair read;
    if (!(in >> read.source >> read.target >> read.max_hops >> (*out)[i]) ||
        read.source != pairs[i].source || read.target != pairs[i].target ||
        read.max_hops != pairs[i].max_hops) {
      return false;
    }
  }
  return true;
}

void WriteCache(const std::string& path, const std::vector<ScalarPair>& pairs,
                uint32_t k_ref, uint64_t seed,
                const std::vector<double>& reference) {
  std::error_code error;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), error);
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp);
    out.precision(17);
    out << k_ref << ' ' << seed << ' ' << pairs.size() << '\n';
    for (size_t i = 0; i < pairs.size(); ++i) {
      out << pairs[i].source << ' ' << pairs[i].target << ' '
          << pairs[i].max_hops << ' ' << reference[i] << '\n';
    }
    if (!out.flush()) return;
  }
  std::filesystem::rename(temp, path, error);
}

}  // namespace

std::vector<double> SampleReference(const relcomp::UncertainGraph& graph,
                                    const std::vector<ScalarPair>& pairs,
                                    uint32_t k_ref, uint64_t seed,
                                    size_t threads) {
  std::vector<double> reference(pairs.size(), 0.0);
  std::atomic<size_t> next{0};
  auto work = [&] {
    WorldSampler sampler(graph);
    for (size_t i = next++; i < pairs.size(); i = next++) {
      reference[i] = sampler.Reliability(pairs[i], k_ref, seed);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  return reference;
}

std::vector<double> CachedReference(const std::string& path,
                                    const relcomp::UncertainGraph& graph,
                                    const std::vector<ScalarPair>& pairs,
                                    uint32_t k_ref, uint64_t seed,
                                    size_t threads) {
  std::vector<double> reference;
  if (ReadCache(path, pairs, k_ref, seed, &reference)) return reference;
  reference = SampleReference(graph, pairs, k_ref, seed, threads);
  WriteCache(path, pairs, k_ref, seed, reference);
  return reference;
}

}  // namespace relbench
