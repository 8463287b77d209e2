#include "engine/lru_cache.h"

#include "common/rng.h"

namespace relcomp {

uint64_t ResultCacheKey::Hash() const {
  uint64_t h = HashWorkloadQuery(seed, query);
  h = HashCombineSeed(h, static_cast<uint64_t>(kind));
  h = HashCombineSeed(h, num_samples);
  return h;
}

uint64_t SweepCacheKey::Hash() const {
  uint64_t h = HashCombineSeed(seed, static_cast<uint64_t>(kind));
  h = HashCombineSeed(h, source);
  h = HashCombineSeed(h, num_samples);
  return h;
}

}  // namespace relcomp
