// Durable per-query-class profile aggregates.
//
// The observatory's memory: each finished execution deposits one sample
// (latency, predicted vs actual rows and cost, plan chosen) under its
// query-class key — the query with host-variable constants stripped and
// bucketed, so "age BETWEEN :lo AND :hi with a ~10-wide range" is one class
// regardless of the concrete constants. Aggregates are fixed-bucket
// histograms and running sums: bounded memory per class, mergeable, and
// serializable to a small blob the catalog persists across Close/Open.
//
// It is the engine's one predicted-vs-actual store: per-class q-error
// distributions plus plan-choice counts, surviving restarts. Recent drift
// per class is the learning model's job (its EWMA q-error, in learn mode).

#ifndef DYNOPT_OBS_PROFILE_STORE_H_
#define DYNOPT_OBS_PROFILE_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dynopt {

class ProfileStore {
 public:
  /// One execution's predicted-vs-actual record, deposited once by the
  /// engine when it delivers its last row (completed executions only).
  struct Sample {
    double latency_micros = 0;
    double predicted_rows = 0;
    double actual_rows = 0;
    double predicted_cost = 0;
    double actual_cost = 0;
    std::string plan;  // tactic name the engine committed to
  };

  /// Per-class aggregate: bucket histograms over the shared grids
  /// (LatencyBucketBounds / QErrorBucketBounds) plus running sums.
  struct ClassAggregate {
    uint64_t executions = 0;
    double latency_sum_micros = 0;
    std::vector<uint64_t> latency_buckets;  // LatencyBucketBounds()+overflow
    double rows_q_error_sum = 0;
    double rows_q_error_max = 0;
    std::vector<uint64_t> rows_q_error_buckets;  // QErrorBucketBounds()+ovf
    double cost_q_error_sum = 0;
    double cost_q_error_max = 0;
    double total_rows = 0;
    double total_cost = 0;
    std::map<std::string, uint64_t> plan_counts;

    double mean_latency_micros() const {
      return executions > 0 ? latency_sum_micros /
                                  static_cast<double>(executions)
                            : 0;
    }
    double LatencyPercentile(double q) const;
    double RowsQErrorPercentile(double q) const;
  };

  /// Folds `sample` into the aggregate for `query_class`. Thread-safe;
  /// concurrent sessions record under one store.
  void Record(std::string_view query_class, const Sample& sample);

  size_t size() const;
  /// Copy of one class's aggregate (tests / readers); nullopt if absent.
  std::optional<ClassAggregate> Find(std::string_view query_class) const;
  /// Class keys in deterministic (sorted) order.
  std::vector<std::string> Classes() const;

  /// Compact binary image for the catalog blob. Deterministic given the
  /// same aggregates, so re-export after a round trip is byte-identical.
  std::string Serialize() const;
  /// Replaces the store's contents with a Serialize() image.
  Status Load(std::string_view blob);

  /// Deterministic JSON export (classes sorted, percentiles included).
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ClassAggregate> classes_;
};

}  // namespace dynopt

#endif  // DYNOPT_OBS_PROFILE_STORE_H_
