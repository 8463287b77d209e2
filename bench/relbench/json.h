#pragma once

// Minimal JSON reader for the two documents the benchmark consumes: the
// engine's MetricsRegistry::ExportJson() scrape and BENCHMARK.json (for
// --check-spec). Parsing them here, rather than through a library accessor,
// keeps the benchmark tied to the exported format only.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace relbench {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  /// Array elements, or object values (parallel to `keys`).
  std::vector<JsonValue> items;
  /// Object member names, in document order.
  std::vector<std::string> keys;

  /// The member named `key` of an object; nullptr when absent or not an
  /// object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one JSON document; nullopt when `text` is not valid JSON.
std::optional<JsonValue> ParseJson(std::string_view text);

/// `s` as a JSON string literal, quotes included.
std::string JsonQuote(std::string_view s);

/// A finite number with all its significant digits, or `null`.
std::string JsonNumber(std::optional<double> value);

}  // namespace relbench
