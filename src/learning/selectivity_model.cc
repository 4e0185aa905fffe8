#include "learning/selectivity_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/coding.h"

namespace dynopt {

namespace {

constexpr uint32_t kModelVersion = 1;
// Corrections are clamped to a factor of 1e6 either way so one absurd
// observation (zero-row result against a huge estimate) cannot poison a
// class with an unbounded multiplier.
constexpr double kMaxLogCorrection = 13.8;  // ln(1e6)
// Log2-space feature distance below which an observation merges into an
// existing neighbor instead of inserting a new one.
constexpr double kMergeRadius = 0.5;
// Lookup search radius (mean |Δlog2| per dimension).
constexpr double kLookupRadius = 2.0;
// Neighbors consulted per lookup.
constexpr size_t kNeighborsPerLookup = 3;
// Lookup returns no correction until the matched neighbors have at least
// this many samples between them.
constexpr uint64_t kMinSamples = 2;
// StrategyCost returns nothing below this many completions.
constexpr uint64_t kMinStrategySamples = 1;

double LogCorrection(double predicted, double actual) {
  double p = std::max(std::fabs(predicted), 1.0);
  double a = std::max(std::fabs(actual), 1.0);
  return std::clamp(std::log(a / p), -kMaxLogCorrection, kMaxLogCorrection);
}

}  // namespace

std::string_view LearningModeName(LearningMode mode) {
  switch (mode) {
    case LearningMode::kControlled:
      return "controlled";
    case LearningMode::kLearn:
      return "learn";
    case LearningMode::kFrozen:
      return "frozen";
  }
  return "?";
}

double SelectivityModel::Distance(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  if (a.empty()) return 0.0;  // literal-only class: every execution matches
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

std::optional<SelectivityModel::Correction> SelectivityModel::Lookup(
    std::string_view class_prefix, const std::vector<double>& features) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == LearningMode::kControlled) return std::nullopt;
  Bump(m_lookups_);
  auto it = classes_.find(class_prefix);
  if (it == classes_.end()) return std::nullopt;

  // k nearest neighbors within the search radius, weighted by sample mass
  // and proximity (AQO's inverse-distance weighting in log2 space).
  struct Cand {
    double dist;
    const Neighbor* n;
  };
  std::vector<Cand> cands;
  for (const Neighbor& n : it->second.neighbors) {
    double d = Distance(n.features, features);
    if (d <= kLookupRadius) cands.push_back({d, &n});
  }
  if (cands.empty()) return std::nullopt;
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.dist < b.dist;
  });
  if (cands.size() > kNeighborsPerLookup) cands.resize(kNeighborsPerLookup);

  double wsum = 0, rows = 0, cost = 0;
  uint64_t samples = 0;
  for (const Cand& c : cands) {
    double w = static_cast<double>(c.n->samples) / (1.0 + c.dist);
    wsum += w;
    rows += w * c.n->log_rows_correction;
    cost += w * c.n->log_cost_correction;
    samples += c.n->samples;
  }
  if (samples < kMinSamples || wsum <= 0) return std::nullopt;
  Correction corr;
  corr.rows_factor = std::exp(rows / wsum);
  corr.cost_factor = std::exp(cost / wsum);
  corr.samples = samples;
  corr.confidence = static_cast<double>(samples) /
                    (static_cast<double>(samples) + 4.0) /
                    (1.0 + cands.front().dist);
  return corr;
}

void SelectivityModel::Observe(std::string_view class_prefix,
                               const std::vector<double>& features,
                               double predicted_rows, double actual_rows,
                               double predicted_cost, double actual_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ != LearningMode::kLearn) return;
  Bump(m_observations_);
  double log_rows = LogCorrection(predicted_rows, actual_rows);
  double log_cost = LogCorrection(predicted_cost, actual_cost);
  ClassEntry& entry = classes_[std::string(class_prefix)];
  entry.observations++;
  double q = QError(predicted_rows, actual_rows);
  entry.rows_q_error_ewma += 0.2 * (q - entry.rows_q_error_ewma);

  // Merge into the nearest neighbor within the merge radius, else insert.
  Neighbor* best = nullptr;
  double best_dist = kMergeRadius;
  for (Neighbor& n : entry.neighbors) {
    double d = Distance(n.features, features);
    if (d <= best_dist) {
      best_dist = d;
      best = &n;
    }
  }
  if (best != nullptr) {
    double a = options_.ewma_alpha;
    best->log_rows_correction += a * (log_rows - best->log_rows_correction);
    best->log_cost_correction += a * (log_cost - best->log_cost_correction);
    best->samples++;
    return;
  }
  Neighbor n;
  n.features = features;
  n.log_rows_correction = log_rows;
  n.log_cost_correction = log_cost;
  n.samples = 1;
  entry.neighbors.push_back(std::move(n));
  if (entry.neighbors.size() > options_.max_neighbors) {
    // Evict the least-sampled neighbor (oldest on ties) — bounded memory
    // per class, like AQO's fixed per-class feature matrix.
    size_t victim = 0;
    for (size_t i = 1; i < entry.neighbors.size(); ++i) {
      if (entry.neighbors[i].samples < entry.neighbors[victim].samples) {
        victim = i;
      }
    }
    entry.neighbors.erase(entry.neighbors.begin() +
                          static_cast<ptrdiff_t>(victim));
    Bump(m_evicted_);
  }
}

void SelectivityModel::ObserveStrategyCost(std::string_view class_key,
                                           std::string_view strategy,
                                           double actual_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ != LearningMode::kLearn) return;
  StrategyCost& sc = strategy_costs_[std::string(class_key)]
                                    [std::string(strategy)];
  if (sc.samples == 0) {
    sc.mean_cost = actual_cost;
  } else {
    sc.mean_cost += options_.ewma_alpha * (actual_cost - sc.mean_cost);
  }
  sc.samples++;
}

std::optional<SelectivityModel::StrategyCost>
SelectivityModel::LookupStrategyCost(std::string_view class_key,
                                     std::string_view strategy) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == LearningMode::kControlled) return std::nullopt;
  auto it = strategy_costs_.find(class_key);
  if (it == strategy_costs_.end()) return std::nullopt;
  auto jt = it->second.find(std::string(strategy));
  if (jt == it->second.end()) return std::nullopt;
  if (jt->second.samples < kMinStrategySamples) return std::nullopt;
  return jt->second;
}

void SelectivityModel::NoteApplied(std::string_view class_prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  Bump(m_applied_);
  // The per-class tally is persisted state, so only learn mode may touch
  // it — frozen is reads-only down to the serialized blob.
  if (mode_ != LearningMode::kLearn) return;
  auto it = classes_.find(class_prefix);
  if (it != classes_.end()) it->second.applied++;
}

void SelectivityModel::NoteCompetitionOverride() {
  std::lock_guard<std::mutex> lock(mu_);
  Bump(m_overrides_);
}

void SelectivityModel::AttachMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  m_observations_ = metrics->counter("learning.observations");
  m_lookups_ = metrics->counter("learning.lookups");
  m_applied_ = metrics->counter("learning.corrections_applied");
  m_overrides_ = metrics->counter("learning.competition_overrides");
  m_evicted_ = metrics->counter("learning.neighbors_evicted");
}

size_t SelectivityModel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return classes_.size();
}

uint64_t SelectivityModel::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [key, entry] : classes_) n += entry.observations;
  return n;
}

std::string SelectivityModel::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string blob;
  PutU32(&blob, kModelVersion);
  PutU32(&blob, static_cast<uint32_t>(classes_.size()));
  for (const auto& [key, entry] : classes_) {
    PutStr(&blob, key);
    PutU64(&blob, entry.observations);
    PutU64(&blob, entry.applied);
    PutF64(&blob, entry.rows_q_error_ewma);
    PutU32(&blob, static_cast<uint32_t>(entry.neighbors.size()));
    for (const Neighbor& n : entry.neighbors) {
      PutU32(&blob, static_cast<uint32_t>(n.features.size()));
      for (double f : n.features) PutF64(&blob, f);
      PutF64(&blob, n.log_rows_correction);
      PutF64(&blob, n.log_cost_correction);
      PutU64(&blob, n.samples);
    }
  }
  PutU32(&blob, static_cast<uint32_t>(strategy_costs_.size()));
  for (const auto& [key, strategies] : strategy_costs_) {
    PutStr(&blob, key);
    PutU32(&blob, static_cast<uint32_t>(strategies.size()));
    for (const auto& [strategy, sc] : strategies) {
      PutStr(&blob, strategy);
      PutF64(&blob, sc.mean_cost);
      PutU64(&blob, sc.samples);
    }
  }
  return blob;
}

Status SelectivityModel::Load(std::string_view blob) {
  std::map<std::string, ClassEntry, std::less<>> classes;
  std::map<std::string, std::map<std::string, StrategyCost>, std::less<>>
      strategy_costs;
  ByteReader r(blob);
  uint32_t version, class_count;
  if (!r.U32(&version) || version != kModelVersion) {
    return Status::Corruption("selectivity model: bad blob version");
  }
  if (!r.U32(&class_count)) {
    return Status::Corruption("selectivity model: truncated header");
  }
  for (uint32_t i = 0; i < class_count; ++i) {
    std::string key;
    ClassEntry entry;
    uint32_t n_neighbors = 0;
    bool ok = r.Str(&key) && r.U64(&entry.observations) &&
              r.U64(&entry.applied) && r.F64(&entry.rows_q_error_ewma) &&
              r.U32(&n_neighbors);
    for (uint32_t j = 0; ok && j < n_neighbors; ++j) {
      Neighbor n;
      uint32_t dim = 0;
      ok = r.U32(&dim);
      // One feature at a time: a corrupt `dim` fails on the bytes actually
      // present instead of sizing an allocation.
      for (uint32_t d = 0; ok && d < dim; ++d) {
        double f;
        ok = r.F64(&f);
        if (ok) n.features.push_back(f);
      }
      ok = ok && r.F64(&n.log_rows_correction) &&
           r.F64(&n.log_cost_correction) && r.U64(&n.samples);
      if (ok) entry.neighbors.push_back(std::move(n));
    }
    if (!ok) return Status::Corruption("selectivity model: truncated class");
    classes[std::move(key)] = std::move(entry);
  }
  uint32_t strat_class_count;
  if (!r.U32(&strat_class_count)) {
    return Status::Corruption("selectivity model: truncated strategy block");
  }
  for (uint32_t i = 0; i < strat_class_count; ++i) {
    std::string key;
    uint32_t n = 0;
    if (!r.Str(&key) || !r.U32(&n)) {
      return Status::Corruption("selectivity model: truncated strategy class");
    }
    std::map<std::string, StrategyCost> strategies;
    for (uint32_t j = 0; j < n; ++j) {
      std::string strategy;
      StrategyCost sc;
      if (!r.Str(&strategy) || !r.F64(&sc.mean_cost) || !r.U64(&sc.samples)) {
        return Status::Corruption("selectivity model: truncated strategy");
      }
      strategies[std::move(strategy)] = sc;
    }
    strategy_costs[std::move(key)] = std::move(strategies);
  }
  if (!r.exhausted()) {
    return Status::Corruption("selectivity model: trailing bytes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  classes_ = std::move(classes);
  strategy_costs_ = std::move(strategy_costs);
  return Status::OK();
}

std::string SelectivityModel::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.KV("mode", std::string(LearningModeName(mode_)));
  w.KV("classes", static_cast<uint64_t>(classes_.size()));
  w.Key("corrections").BeginObject();
  for (const auto& [key, entry] : classes_) {
    w.Key(key).BeginObject();
    w.KV("observations", entry.observations);
    w.KV("applied", entry.applied);
    w.KV("rows_q_error_ewma", entry.rows_q_error_ewma);
    w.KV("neighbors", static_cast<uint64_t>(entry.neighbors.size()));
    w.EndObject();
  }
  w.EndObject();
  w.Key("strategy_costs").BeginObject();
  for (const auto& [key, strategies] : strategy_costs_) {
    w.Key(key).BeginObject();
    for (const auto& [strategy, sc] : strategies) {
      w.Key(strategy).BeginObject();
      w.KV("mean_cost", sc.mean_cost);
      w.KV("samples", sc.samples);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::vector<LearningClassRow> SelectivityModel::DashboardRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LearningClassRow> rows;
  rows.reserve(classes_.size());
  for (const auto& [key, entry] : classes_) {
    LearningClassRow row;
    row.class_key = key;
    row.samples = entry.observations;
    row.rows_q_error = entry.rows_q_error_ewma;
    row.corrections_applied = entry.applied;
    // Representative factor: the most-sampled neighbor's correction.
    const Neighbor* top = nullptr;
    for (const Neighbor& n : entry.neighbors) {
      if (top == nullptr || n.samples > top->samples) top = &n;
    }
    if (top != nullptr) {
      row.rows_factor = std::exp(top->log_rows_correction);
      row.cost_factor = std::exp(top->log_cost_correction);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dynopt
