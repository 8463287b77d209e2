#pragma once

// Reads engine counters the way an operator would: from the text of one
// MetricsRegistry::ExportJson() scrape, by the registry names documented in
// src/engine/README.md ("Observability"). A name the scrape lacks reads as
// nullopt, so a later change that renames or drops an instrument makes the
// matching metric null instead of failing the benchmark.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace relbench {

class Scrape {
 public:
  Scrape() = default;
  /// Parses an ExportJson() document; a malformed one yields an empty scrape.
  explicit Scrape(std::string_view export_json);

  /// Sum over every label value of counter `name`.
  std::optional<double> Counter(std::string_view name) const;
  /// Gauge `name` (the first label value when it has several).
  std::optional<double> Gauge(std::string_view name) const;

  /// Log-bucketed histogram, as exported: bucket upper bound -> count.
  struct Histogram {
    std::map<uint64_t, uint64_t> buckets;
  };
  /// Histogram `name`; `label_value` selects one member of a labeled family
  /// (empty = an unlabeled histogram).
  std::optional<Histogram> Hist(std::string_view name,
                                std::string_view label_value = {}) const;

 private:
  /// Instrument key: name, or name + '\x1f' + label value.
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// after − before for counter `name`; nullopt when either scrape lacks it.
std::optional<double> CounterDelta(const Scrape& before, const Scrape& after,
                                   std::string_view name);

/// Quantile q of the values recorded between the two scrapes of histogram
/// (`name`, `label_value`), in the histogram's unit, interpolated linearly
/// within the bucket that holds rank q * count (as Prometheus'
/// histogram_quantile does). nullopt when the name is missing or no value
/// was recorded in between.
std::optional<double> HistQuantileDelta(const Scrape& before,
                                        const Scrape& after,
                                        std::string_view name,
                                        std::string_view label_value,
                                        double q);

}  // namespace relbench
