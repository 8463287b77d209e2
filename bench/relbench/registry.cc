#include "registry.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "json.h"

namespace relbench {

namespace {

/// The label value of an exported instrument (`"labels":{"k":"v"}`), or "".
std::string LabelValue(const JsonValue& instrument) {
  const JsonValue* labels = instrument.Find("labels");
  if (labels == nullptr || labels->items.empty() ||
      labels->items.front().type != JsonValue::Type::kString) {
    return "";
  }
  return labels->items.front().string;
}

std::string HistKey(std::string_view name, std::string_view label_value) {
  std::string key(name);
  if (!label_value.empty()) {
    key += '\x1f';
    key += label_value;
  }
  return key;
}

/// Smallest value of the exported bucket whose inclusive upper bound is
/// `le`. The registry's layout (src/obs/metrics.h): values 0..15 get a
/// bucket each; above that each power of two [2^e, 2^(e+1)) splits into 8
/// buckets of width 2^(e-3).
uint64_t BucketLowerBound(uint64_t le) {
  if (le < 16) return le;
  return le + 1 - (uint64_t{1} << (std::bit_width(le) - 4));
}

uint64_t AsCount(const JsonValue* value) {
  if (value == nullptr || value->type != JsonValue::Type::kNumber ||
      !(value->number >= 0.0)) {
    return 0;
  }
  return static_cast<uint64_t>(std::llround(value->number));
}

}  // namespace

Scrape::Scrape(std::string_view export_json) {
  const std::optional<JsonValue> doc = ParseJson(export_json);
  if (!doc.has_value()) return;
  auto each = [&](const char* section, auto&& fn) {
    const JsonValue* list = doc->Find(section);
    if (list == nullptr || list->type != JsonValue::Type::kArray) return;
    for (const JsonValue& instrument : list->items) {
      const JsonValue* name = instrument.Find("name");
      if (name == nullptr || name->type != JsonValue::Type::kString) continue;
      fn(name->string, instrument);
    }
  };
  each("counters", [&](const std::string& name, const JsonValue& c) {
    const JsonValue* value = c.Find("value");
    if (value != nullptr && value->type == JsonValue::Type::kNumber) {
      counters_[name] += value->number;
    }
  });
  each("gauges", [&](const std::string& name, const JsonValue& g) {
    const JsonValue* value = g.Find("value");
    if (value != nullptr && value->type == JsonValue::Type::kNumber) {
      gauges_.emplace(name, value->number);
    }
  });
  each("histograms", [&](const std::string& name, const JsonValue& h) {
    Histogram hist;
    if (const JsonValue* buckets = h.Find("buckets"); buckets != nullptr) {
      for (const JsonValue& bucket : buckets->items) {
        hist.buckets[AsCount(bucket.Find("le"))] += AsCount(bucket.Find("count"));
      }
    }
    histograms_[HistKey(name, LabelValue(h))] = std::move(hist);
  });
}

std::optional<double> Scrape::Counter(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  if (it == counters_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Scrape::Gauge(std::string_view name) const {
  const auto it = gauges_.find(std::string(name));
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::optional<Scrape::Histogram> Scrape::Hist(
    std::string_view name, std::string_view label_value) const {
  const auto it = histograms_.find(HistKey(name, label_value));
  if (it == histograms_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> CounterDelta(const Scrape& before, const Scrape& after,
                                   std::string_view name) {
  const std::optional<double> a = after.Counter(name);
  if (!a.has_value()) return std::nullopt;
  // An instrument created after the first scrape started from zero.
  return *a - before.Counter(name).value_or(0.0);
}

std::optional<double> HistQuantileDelta(const Scrape& before,
                                        const Scrape& after,
                                        std::string_view name,
                                        std::string_view label_value,
                                        double q) {
  const std::optional<Scrape::Histogram> late = after.Hist(name, label_value);
  if (!late.has_value()) return std::nullopt;
  const Scrape::Histogram early =
      before.Hist(name, label_value).value_or(Scrape::Histogram{});
  std::map<uint64_t, uint64_t> delta;
  uint64_t total = 0;
  for (const auto& [le, count] : late->buckets) {
    const auto prior = early.buckets.find(le);
    const uint64_t base = prior == early.buckets.end() ? 0 : prior->second;
    if (count > base) {
      delta[le] = count - base;
      total += count - base;
    }
  }
  if (total == 0) return std::nullopt;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  uint64_t seen = 0;
  for (const auto& [le, count] : delta) {
    if (static_cast<double>(seen + count) >= rank) {
      const double lower = static_cast<double>(BucketLowerBound(le));
      const double fraction =
          (rank - static_cast<double>(seen)) / static_cast<double>(count);
      return lower + fraction * (static_cast<double>(le) + 1.0 - lower);
    }
    seen += count;
  }
  return static_cast<double>(delta.rbegin()->first);
}

}  // namespace relbench
