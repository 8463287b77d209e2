#include "engine/router.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <utility>

#include "common/format.h"

namespace relcomp {

namespace {

/// Minimal recursive-descent JSON reader for the tournament profile — no
/// external dependency, just enough of RFC 8259 for the documents this repo
/// itself emits (objects, arrays, strings with the common escapes, numbers,
/// bools, null).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(std::string_view key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
  double NumberOr(std::string_view key, double fallback) const {
    const JsonValue* value = Get(key);
    return value != nullptr && value->type == Type::kNumber ? value->number
                                                            : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    RELCOMP_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("router profile JSON: %s (at offset %zu)", what, pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of document");
    const char c = text_[pos_];
    JsonValue value;
    switch (c) {
      case '{': {
        ++pos_;
        value.type = JsonValue::Type::kObject;
        if (Consume('}')) return value;
        for (;;) {
          SkipWs();
          std::string key;
          RELCOMP_RETURN_NOT_OK(ParseString(&key));
          if (!Consume(':')) return Error("expected ':' in object");
          RELCOMP_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
          value.object.emplace_back(std::move(key), std::move(member));
          if (Consume(',')) continue;
          if (Consume('}')) return value;
          return Error("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        value.type = JsonValue::Type::kArray;
        if (Consume(']')) return value;
        for (;;) {
          RELCOMP_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
          value.array.push_back(std::move(element));
          if (Consume(',')) continue;
          if (Consume(']')) return value;
          return Error("expected ',' or ']' in array");
        }
      }
      case '"': {
        value.type = JsonValue::Type::kString;
        RELCOMP_RETURN_NOT_OK(ParseString(&value.string));
        return value;
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        value.type = JsonValue::Type::kBool;
        return value;
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        return value;
      default:
        return ParseNumber();
    }
  }

  Status ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // Profiles are ASCII; decode BMP escapes to keep the reader total.
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            out->push_back('?');
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t begin = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == begin) return Error("expected value");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    try {
      value.number = std::stod(std::string(text_.substr(begin, pos_ - begin)));
    } catch (...) {
      return Error("bad number");
    }
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

constexpr EstimatorKind kAllKinds[] = {
    EstimatorKind::kMonteCarlo,      EstimatorKind::kBfsSharing,
    EstimatorKind::kProbTree,        EstimatorKind::kLazyPropagationPlus,
    EstimatorKind::kRecursive,       EstimatorKind::kRecursiveStratified,
    EstimatorKind::kLazyPropagation, EstimatorKind::kProbTreeLpPlus,
    EstimatorKind::kProbTreeRhh,     EstimatorKind::kProbTreeRss,
};

}  // namespace

bool EstimatorKindFromName(std::string_view name, EstimatorKind* kind) {
  for (const EstimatorKind candidate : kAllKinds) {
    if (name == EstimatorKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

RouterModel RouterModel::Default(
    const std::vector<BackendCapabilities>& backends,
    const GraphFeatures& graph, const RouterOptions& options) {
  RouterModel model;
  const double m = static_cast<double>(graph.num_edges);
  // Expected sampled-subgraph size: each edge survives with its probability,
  // floored so degenerate graphs still produce a usable (ordering-only)
  // curve.
  const double sampled = std::max(1.0, m * std::max(0.01, graph.mean_edge_prob));
  for (const BackendCapabilities& backend : backends) {
    BackendProfile profile;
    profile.kind = backend.kind;
    const auto seconds_at = [&](double k) {
      return options.edge_visit_seconds *
             (backend.hints.per_query_edge_cost * m +
              backend.hints.per_sample_edge_cost * k * sampled);
    };
    // Two points pin the affine prior exactly under piecewise-linear
    // interpolation.
    profile.curve.push_back(CurvePoint{1.0, seconds_at(1.0), 0.25});
    const double k1 = 4096.0;
    profile.curve.push_back(CurvePoint{k1, seconds_at(k1), 0.25 / k1});
    model.profiles_.push_back(std::move(profile));
  }
  return model;
}

Result<RouterModel> RouterModel::FromJson(std::string_view json) {
  JsonParser parser(json);
  RELCOMP_ASSIGN_OR_RETURN(JsonValue document, parser.Parse());
  if (document.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("router profile JSON: document must be an object");
  }
  const JsonValue* backends = document.Get("backends");
  if (backends == nullptr || backends->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "router profile JSON: missing \"backends\" array");
  }
  RouterModel model;
  for (const JsonValue& entry : backends->array) {
    if (entry.type != JsonValue::Type::kObject) continue;
    const JsonValue* kind_name = entry.Get("kind");
    EstimatorKind kind;
    if (kind_name == nullptr || kind_name->type != JsonValue::Type::kString ||
        !EstimatorKindFromName(kind_name->string, &kind)) {
      continue;  // unknown backend: a newer profile, skip it
    }
    BackendProfile profile;
    profile.kind = kind;
    profile.converged_k = entry.NumberOr("converged_k", 0.0);
    if (const JsonValue* curve = entry.Get("curve");
        curve != nullptr && curve->type == JsonValue::Type::kArray) {
      for (const JsonValue& point : curve->array) {
        if (point.type != JsonValue::Type::kObject) continue;
        CurvePoint parsed;
        parsed.k = point.NumberOr("k", 0.0);
        parsed.seconds = point.NumberOr("seconds", 0.0);
        parsed.variance = point.NumberOr("variance", 0.0);
        if (parsed.k > 0.0 && parsed.seconds >= 0.0) {
          profile.curve.push_back(parsed);
        }
      }
    }
    if (profile.curve.empty()) continue;
    std::sort(profile.curve.begin(), profile.curve.end(),
              [](const CurvePoint& a, const CurvePoint& b) { return a.k < b.k; });
    model.profiles_.push_back(std::move(profile));
  }
  if (model.profiles_.empty()) {
    return Status::InvalidArgument(
        "router profile JSON: no backend with a usable latency curve");
  }
  return model;
}

const RouterModel::BackendProfile* RouterModel::Find(EstimatorKind kind) const {
  for (const BackendProfile& profile : profiles_) {
    if (profile.kind == kind) return &profile;
  }
  return nullptr;
}

double RouterModel::Interpolate(const std::vector<CurvePoint>& curve, double k,
                                double CurvePoint::*field) {
  if (curve.empty()) return 0.0;
  const CurvePoint& front = curve.front();
  if (curve.size() == 1 || k <= front.k) {
    // Through-the-origin scaling below the first measured point (latency is
    // near-linear in K; callers never consult variance down here).
    return front.k > 0.0 ? front.*field * (k / front.k) : front.*field;
  }
  for (size_t i = 1; i < curve.size(); ++i) {
    if (k <= curve[i].k) {
      const CurvePoint& a = curve[i - 1];
      const CurvePoint& b = curve[i];
      const double dk = b.k - a.k;
      if (dk <= 0.0) return b.*field;
      const double t = (k - a.k) / dk;
      return a.*field + t * (b.*field - a.*field);
    }
  }
  // Linear extrapolation along the last segment, floored at zero.
  const CurvePoint& a = curve[curve.size() - 2];
  const CurvePoint& b = curve.back();
  const double dk = b.k - a.k;
  const double slope = dk > 0.0 ? (b.*field - a.*field) / dk : 0.0;
  return std::max(0.0, b.*field + slope * (k - b.k));
}

double RouterModel::PredictSeconds(EstimatorKind kind, double k) const {
  const BackendProfile* profile = Find(kind);
  return profile == nullptr ? 0.0
                            : Interpolate(profile->curve, k,
                                          &CurvePoint::seconds);
}

double RouterModel::PredictVariance(EstimatorKind kind, double k) const {
  const BackendProfile* profile = Find(kind);
  return profile == nullptr ? 0.0
                            : Interpolate(profile->curve, k,
                                          &CurvePoint::variance);
}

EstimatorRouter::EstimatorRouter(RouterModel model, RouterOptions options,
                                 RouterStaticConfig static_config,
                                 GraphFeatures graph,
                                 std::vector<BackendCapabilities> candidates,
                                 size_t num_threads,
                                 obs::MetricsRegistry* registry)
    : model_(std::move(model)),
      options_(std::move(options)),
      static_(static_config),
      graph_(graph),
      candidates_(std::move(candidates)),
      num_threads_(num_threads == 0 ? 1 : num_threads),
      registry_(registry) {
  fallbacks_ = registry_->GetCounter("router_fallbacks");
  predicted_vs_actual_ = registry_->GetHistogram("router_predicted_vs_actual");
}

const BackendCapabilities* EstimatorRouter::FindCandidate(
    EstimatorKind kind) const {
  for (const BackendCapabilities& candidate : candidates_) {
    if (candidate.kind == kind) return &candidate;
  }
  return nullptr;
}

bool EstimatorRouter::Capable(const BackendCapabilities& candidate,
                              WorkloadKind workload, bool is_sweep) const {
  if (is_sweep) return candidate.sweep;
  if (workload == WorkloadKind::kDistance) return candidate.distance;
  return true;  // every kind answers st
}

QueryPlan EstimatorRouter::StaticPlan() const {
  QueryPlan plan;
  plan.kind = static_.kind;
  plan.num_samples = static_.num_samples;
  plan.num_strata = static_.num_strata;
  plan.routed = false;
  plan.fallback = false;
  plan.predicted_seconds =
      model_.PredictSeconds(static_.kind, static_.num_samples);
  return plan;
}

uint64_t EstimatorRouter::QuantizeKey(const QueryFeatures& features,
                                      double* eps_bucket,
                                      bool* is_sweep) const {
  *is_sweep = IsSweepWorkload(features.workload);
  // Degree bucket: log2 — decisions are stable across sources of similar
  // degree, and same-bucket sources share a memoized plan.
  uint32_t degree_bucket = 0;
  for (uint32_t d = features.out_degree; d != 0; d >>= 1) ++degree_bucket;
  // Escape probability rounded *up* to 1/64ths: conservative for the budget
  // cut (a larger eps can only raise the routed K).
  const double eps = std::clamp(features.escape_prob, 0.0, 1.0);
  const uint32_t eps_index =
      static_cast<uint32_t>(std::min(64.0, std::ceil(eps * 64.0)));
  *eps_bucket = static_cast<double>(eps_index) / 64.0;
  // Sweep plans must be identical for every (k, eta, workload-tag) over one
  // source — the sweep-sharing contract — so sweep kinds collapse to one tag
  // and drop the parameter.
  const uint64_t tag =
      *is_sweep ? 0xFFu : static_cast<uint64_t>(features.workload);
  const uint64_t param = *is_sweep ? 0u : features.param;
  return (tag << 56) | (static_cast<uint64_t>(degree_bucket) << 48) |
         (static_cast<uint64_t>(eps_index) << 40) | param;
}

QueryPlan EstimatorRouter::Compute(const QueryFeatures& features, double eps,
                                   bool is_sweep) {
  QueryPlan plan = StaticPlan();
  plan.routed = true;

  // Budget lever — equal worst-case accuracy: R(s, t) <= eps for every t,
  // and x(1-x) increases on [0, 1/2], so worst-case sampling variance at
  // budget K' is eps(1-eps)/K'. Choosing K' = 4 eps (1-eps) K keeps that at
  // most 0.25/K, the static budget's worst case over the whole query space.
  double efficiency = 1.0;
  if (eps < 0.5) efficiency = 4.0 * eps * (1.0 - eps);
  uint32_t budget = static_cast<uint32_t>(
      std::ceil(static_cast<double>(static_.num_samples) * efficiency));
  const uint32_t floor_budget =
      std::min(options_.min_budget, static_.num_samples);
  budget = std::clamp(budget, std::max(1u, floor_budget), static_.num_samples);
  plan.num_samples = budget;

  // Backend lever — hysteresis-gated switch by predicted latency at the
  // routed budget; a static kind that cannot answer the workload is replaced
  // by the cheapest capable candidate (enabling the query instead of
  // failing it).
  const BackendCapabilities* static_candidate = FindCandidate(static_.kind);
  const bool static_capable =
      static_candidate != nullptr &&
      Capable(*static_candidate, features.workload, is_sweep);
  EstimatorKind chosen = static_.kind;
  double chosen_seconds =
      static_capable
          ? model_.PredictSeconds(static_.kind,
                                  static_cast<double>(budget))
          : 0.0;
  if (!static_capable) {
    double best = std::numeric_limits<double>::infinity();
    bool found = false;
    for (const BackendCapabilities& candidate : candidates_) {
      if (!Capable(candidate, features.workload, is_sweep)) continue;
      const double seconds =
          model_.PredictSeconds(candidate.kind, static_cast<double>(budget));
      if (!found || seconds < best) {
        chosen = candidate.kind;
        best = seconds;
        found = true;
      }
    }
    if (found) chosen_seconds = best;
    // No capable candidate: keep the static kind; the query fails exactly
    // as it would with the router off.
  } else if (chosen_seconds > 0.0) {
    for (const BackendCapabilities& candidate : candidates_) {
      if (candidate.kind == chosen) continue;
      if (!Capable(candidate, features.workload, is_sweep)) continue;
      const double seconds =
          model_.PredictSeconds(candidate.kind, static_cast<double>(budget));
      if (seconds > 0.0 &&
          seconds < chosen_seconds * (1.0 - options_.hysteresis_margin)) {
        chosen = candidate.kind;
        chosen_seconds = seconds;
      }
    }
  }
  plan.kind = chosen;
  plan.predicted_seconds = chosen_seconds;

  // Strata lever — a sweep worth real time parallelizes across the machine
  // through the existing stratum work-stealing scheduler; tiny sweeps skip
  // the scheduler overhead and keep the static S.
  plan.num_strata = static_.num_strata;
  if (is_sweep) {
    const BackendCapabilities* chosen_candidate = FindCandidate(chosen);
    if (chosen_candidate != nullptr && chosen_candidate->sweep &&
        num_threads_ > 1 && chosen_seconds > options_.stratify_min_seconds) {
      const uint32_t strata =
          std::max(static_.num_strata,
                   static_cast<uint32_t>(2 * num_threads_));
      plan.num_strata = std::min(strata, std::max(1u, options_.max_strata));
    }
  }
  return plan;
}

QueryPlan EstimatorRouter::Decide(const QueryFeatures& features) {
  decisions_total_.fetch_add(1, std::memory_order_relaxed);
  QueryPlan plan;
  if (fallback_engaged_.load(std::memory_order_relaxed)) {
    plan = StaticPlan();
    plan.fallback = true;
    fallbacks_->Inc();
  } else {
    double eps = 0.0;
    bool is_sweep = false;
    const uint64_t key = QuantizeKey(features, &eps, &is_sweep);
    std::lock_guard<std::mutex> lock(memo_mutex_);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, Compute(features, eps, is_sweep)).first;
    }
    plan = it->second;
  }
  registry_
      ->GetCounter("router_decisions", "kind", EstimatorKindName(plan.kind))
      ->Inc();
  return plan;
}

void EstimatorRouter::RecordObserved(const QueryPlan& plan,
                                     double observed_seconds) {
  if (plan.predicted_seconds <= 0.0) return;
  if (observed_seconds < options_.fallback_min_seconds) return;
  const double ratio = observed_seconds / plan.predicted_seconds;
  predicted_vs_actual_->Record(static_cast<uint64_t>(
      std::min(ratio * 1000.0, 1e18)));  // milli-ratio; 1000 = on the money
  if (!plan.routed || plan.fallback) return;
  if (fallback_engaged_.load(std::memory_order_relaxed)) return;
  if (ratio > options_.fallback_gate) {
    const uint64_t streak =
        consecutive_regressions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= options_.fallback_min_observations) {
      // Sticky for the engine's lifetime: once routing demonstrably
      // regresses, every later decision is the paper-faithful default.
      fallback_engaged_.store(true, std::memory_order_relaxed);
    }
  } else {
    consecutive_regressions_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace relcomp
