#pragma once

// Order statistics shared by the load generator, the replay, and the report.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace relbench {

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median; the mean of the middle pair for even sizes, 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Samples strictly above the nearest-rank percentile q — the count the
/// "ten samples beyond the reported percentile" rule reads.
inline size_t CountBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

}  // namespace relbench
