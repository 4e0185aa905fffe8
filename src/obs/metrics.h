// Metrics registry — named counters and fixed-bucket histograms.
//
// Engine components (buffer pool, B-tree, steppers, Jscan) register named
// counters once at construction and bump them through raw pointers on the
// hot path: no lookup, no allocation, no lock. When no registry is attached
// the pointers stay null and every instrumentation site is a single
// predictable branch — the cheap runtime guard that keeps disabled-mode
// cost unmeasurable.
//
// The registry aggregates across queries (it belongs to the Database); the
// per-execution story is told by the typed trace (obs/trace.h) and the
// per-query-class profile store (obs/profile_store.h).

#ifndef DYNOPT_OBS_METRICS_H_
#define DYNOPT_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/atomic_counter.h"
#include "util/cost_meter.h"

namespace dynopt {

/// Counter values are relaxed atomics: many sessions bump the same held
/// pointer concurrently, still zero-alloc and lock-free on the hot path.
struct Counter {
  std::string name;
  RelaxedCounter value = 0;
};

/// Null-safe increment: the instrumentation idiom for detachable metrics.
inline void Bump(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->value += n;
}

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one overflow bucket catches everything above the last bound. Buckets are
/// fixed at registration so Observe() never allocates; bucket counts and
/// the sum are relaxed atomics so concurrent observers never lose a sample.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void Observe(double value);

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; last is the overflow bucket.
  const std::vector<RelaxedCounter>& buckets() const { return buckets_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Estimated q-quantile (q in [0,1]) from the bucket loads — see
  /// PercentileFromBuckets. A concurrent-read snapshot, not a cut.
  double Percentile(double q) const;

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<RelaxedCounter> buckets_;
  RelaxedCounter count_ = 0;
  RelaxedDouble sum_ = 0;
};

inline void Observe(Histogram* h, double value) {
  if (h != nullptr) h->Observe(value);
}

/// Registration and export take an internal lock (they're cold paths);
/// bumps through held Counter*/Histogram* pointers stay lock-free.
class MetricsRegistry {
 public:
  /// Finds or creates the named counter. The returned pointer is stable for
  /// the registry's lifetime — hold it, don't re-look it up.
  Counter* counter(std::string_view name);

  /// Finds or creates the named histogram. `bounds` applies only on
  /// creation; later callers share the existing instance.
  Histogram* histogram(std::string_view name, std::vector<double> bounds);

  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  /// Counter value by name; 0 when the counter does not exist.
  uint64_t Value(std::string_view name) const;
  /// Gauge-style overwrite (used for snapshots, e.g. cost-meter exports).
  void Set(std::string_view name, uint64_t value);

  /// Name-ordered views for rendering.
  std::vector<const Counter*> counters() const;
  std::vector<const Histogram*> histograms() const;

  std::string ToJson() const;

 private:
  mutable std::mutex mu_;  // guards the slot containers and name maps
  // deques: stable addresses under growth.
  std::deque<Counter> counter_slots_;
  std::deque<Histogram> histogram_slots_;
  std::map<std::string, Counter*, std::less<>> counters_by_name_;
  std::map<std::string, Histogram*, std::less<>> histograms_by_name_;
};

/// Estimates the q-quantile (q in [0,1]) from fixed-bucket counts
/// (`counts.size() == bounds.size() + 1`; the extra entry is the overflow
/// bucket) by linear interpolation inside the owning bucket. Returns 0 with
/// no samples; a quantile landing in the overflow bucket returns the last
/// bound — a floor, not a guess. This is the one percentile path shared by
/// the dashboard, the workload driver, live telemetry, and bench reports,
/// so "p99" means the same thing on every surface.
double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& counts, double q);

/// Shared latency grid: 1-2-5 geometric bounds in microseconds, 1us..5e8us.
/// Every latency percentile in the system estimates from this grid, so
/// figures stay comparable across the driver, telemetry, and benches.
const std::vector<double>& LatencyBucketBounds();

/// Shared q-error grid (1 = perfect estimate), geometric to 1e6.
const std::vector<double>& QErrorBucketBounds();

/// The multiplicative miss of an estimate: max(pred/act, act/pred) with
/// both sides floored at `eps`, so zero-vs-zero is 1.0 (perfect) and
/// zero-vs-n stays finite.
double QError(double predicted, double actual, double eps = 1.0);

/// Copies a CostMeter's primitive-operation counters into "cost.*" gauges —
/// how the dynamic execution metric shows up next to component metrics in
/// one export.
void SnapshotCostMeter(MetricsRegistry* registry, const CostMeter& meter);

/// Renders the registry as a JSON object into an in-progress writer.
void WriteMetrics(JsonWriter* w, const MetricsRegistry& registry);

}  // namespace dynopt

#endif  // DYNOPT_OBS_METRICS_H_
