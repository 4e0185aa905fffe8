// Learned selectivity corrections — the estimation-feedback loop, closed.
//
// The profile store records what the estimator predicted against what
// execution observed, for reporting; this model feeds the same figures back
// into estimation, in the spirit of postgres AQO: executions deposit
// per-query-class observations (predicted vs actual rows and cost, keyed by
// the class prefix from exec/query_class.h plus a normalized feature vector
// of the bound host variables), and later executions of the same class look
// up a multiplicative correction learned by kNN over those features with
// EWMA updates. A separate per-(class, strategy) cost account remembers what a
// strategy *really* cost to run to completion, so the §3 competition can
// narrow its L-shaped analytic prior around the measured mean — a learned
// correction can change who wins the race.
//
// Modes mirror AQO's auto_tuning states:
//   controlled  neither reads nor writes — pre-learning behavior bit-for-bit
//   learn       reads corrections and absorbs new observations
//   frozen      reads what it has, absorbs nothing
//
// The model serializes to a deterministic blob the catalog persists across
// Database::Close/Open (byte-identical round trip, like ProfileStore). The
// mode is deliberately NOT persisted: it is an operator decision, not data.

#ifndef DYNOPT_LEARNING_SELECTIVITY_MODEL_H_
#define DYNOPT_LEARNING_SELECTIVITY_MODEL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/dashboard.h"
#include "util/status.h"

namespace dynopt {

struct Counter;
class MetricsRegistry;

enum class LearningMode : uint8_t {
  kControlled = 0,  // no reads, no writes: pre-PR behavior bit-for-bit
  kLearn = 1,       // reads + writes
  kFrozen = 2,      // reads only
};

std::string_view LearningModeName(LearningMode mode);

class SelectivityModel {
 public:
  struct Options {
    /// kNN neighbors kept per query class; past this the least-sampled
    /// (oldest on ties) neighbor is evicted.
    size_t max_neighbors = 16;
    /// EWMA step for merging a new observation into a matched neighbor.
    double ewma_alpha = 0.3;
  };

  /// A learned multiplicative correction for one class + feature point.
  struct Correction {
    double rows_factor = 1.0;
    double cost_factor = 1.0;
    /// 0..1, grows with the sample mass behind the matched neighbors.
    double confidence = 0.0;
    uint64_t samples = 0;
  };

  /// Measured full-run cost of one strategy within one (full) query class.
  struct StrategyCost {
    double mean_cost = 0;  // EWMA over completed runs
    uint64_t samples = 0;
  };

  SelectivityModel() = default;
  explicit SelectivityModel(Options options) : options_(options) {}

  LearningMode mode() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mode_;
  }
  void set_mode(LearningMode mode) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = mode;
  }
  /// True when lookups may return corrections (learn or frozen).
  bool reads_enabled() const { return mode() != LearningMode::kControlled; }
  /// True when observations are absorbed (learn only).
  bool writes_enabled() const { return mode() == LearningMode::kLearn; }

  /// Learned correction for `class_prefix` at `features` (signed log2
  /// magnitudes of the bound parameters, name order — see
  /// QueryClassFeatures). nullopt in controlled mode, for unknown classes,
  /// or below the sample floor.
  std::optional<Correction> Lookup(std::string_view class_prefix,
                                   const std::vector<double>& features) const;

  /// Absorbs one execution's outcome (raw, uncorrected predictions vs
  /// actuals). No-op unless mode is learn.
  void Observe(std::string_view class_prefix,
               const std::vector<double>& features, double predicted_rows,
               double actual_rows, double predicted_cost, double actual_cost);

  /// Measured total cost of `strategy` running to completion under the
  /// *full* class key (prefix + host-variable bucket suffix). No-op unless
  /// mode is learn.
  void ObserveStrategyCost(std::string_view class_key,
                           std::string_view strategy, double actual_cost);
  std::optional<StrategyCost> LookupStrategyCost(
      std::string_view class_key, std::string_view strategy) const;

  /// Bookkeeping hooks for the engine: a correction was actually applied
  /// to an estimate / a competition decision was overridden by a learned
  /// cost. Counted per class and into learning.* metrics.
  void NoteApplied(std::string_view class_prefix);
  void NoteCompetitionOverride();

  /// Binds learning.* counters; safe to call once up front (Database ctor).
  void AttachMetrics(MetricsRegistry* metrics);

  /// Number of query classes with at least one kNN neighbor.
  size_t size() const;
  uint64_t observations() const;

  /// Deterministic blob for the catalog (mode excluded). Load replaces the
  /// learned state; Serialize(Load(Serialize(x))) is byte-identical.
  std::string Serialize() const;
  Status Load(std::string_view blob);

  std::string ToJson() const;

  /// Per-class rows for the dashboard's learned-selectivity table.
  std::vector<LearningClassRow> DashboardRows() const;

 private:
  struct Neighbor {
    std::vector<double> features;
    double log_rows_correction = 0;  // ln(actual/predicted), EWMA
    double log_cost_correction = 0;
    uint64_t samples = 0;
  };
  struct ClassEntry {
    std::vector<Neighbor> neighbors;
    uint64_t observations = 0;
    uint64_t applied = 0;
    double rows_q_error_ewma = 1.0;
  };

  static double Distance(const std::vector<double>& a,
                         const std::vector<double>& b);

  Options options_;
  mutable std::mutex mu_;
  LearningMode mode_ = LearningMode::kControlled;
  std::map<std::string, ClassEntry, std::less<>> classes_;
  // Full class key -> strategy label -> measured completion cost.
  std::map<std::string, std::map<std::string, StrategyCost>, std::less<>>
      strategy_costs_;

  Counter* m_observations_ = nullptr;
  Counter* m_lookups_ = nullptr;
  Counter* m_applied_ = nullptr;
  Counter* m_overrides_ = nullptr;
  Counter* m_evicted_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_LEARNING_SELECTIVITY_MODEL_H_
