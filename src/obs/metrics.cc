#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace dynopt {

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // First bound >= value is the owning bucket (bounds are inclusive upper
  // limits); past the last bound lands in the overflow bucket. All three
  // updates are relaxed atomics — concurrent observers never lose samples,
  // though a concurrent reader may see count/sum/buckets mid-update.
  size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[i]++;
  count_++;
  sum_ += value;
}

double Histogram::Percentile(double q) const {
  std::vector<uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const RelaxedCounter& c : buckets_) counts.push_back(c.load());
  return PercentileFromBuckets(bounds_, counts, q);
}

double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    double c = static_cast<double>(counts[i]);
    if (cumulative + c >= target && c > 0) {
      if (i >= bounds.size()) return bounds.empty() ? 0 : bounds.back();
      double lo = i > 0 ? bounds[i - 1] : 0;
      double hi = bounds[i];
      double frac = c > 0 ? (target - cumulative) / c : 1.0;
      return lo + frac * (hi - lo);
    }
    cumulative += c;
  }
  return bounds.empty() ? 0 : bounds.back();
}

double EstimatePercentile(const std::vector<double>& samples,
                          const std::vector<double>& bounds, double q) {
  std::vector<uint64_t> counts(bounds.size() + 1, 0);
  for (double v : samples) {
    size_t i =
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin();
    counts[i]++;
  }
  return PercentileFromBuckets(bounds, counts, q);
}

namespace {

std::vector<double> GeometricBounds125(double lo, double hi) {
  std::vector<double> bounds;
  for (double decade = lo; decade <= hi; decade *= 10) {
    for (double m : {1.0, 2.0, 5.0}) {
      if (decade * m > hi) break;
      bounds.push_back(decade * m);
    }
  }
  return bounds;
}

}  // namespace

const std::vector<double>& LatencyBucketBounds() {
  // 1us .. 5e8us (~8 minutes) in 1-2-5 steps: 27 buckets, ~±25% relative
  // error anywhere on the grid — plenty for p50/p99 reporting.
  static const std::vector<double> kBounds = GeometricBounds125(1.0, 5e8);
  return kBounds;
}

const std::vector<double>& QErrorBucketBounds() {
  // Q-errors start at 1 (perfect); everything past 1e6 is "hopeless".
  static const std::vector<double> kBounds = GeometricBounds125(1.0, 1e6);
  return kBounds;
}

double QError(double predicted, double actual, double eps) {
  double p = std::max(std::fabs(predicted), eps);
  double a = std::max(std::fabs(actual), eps);
  return std::max(p / a, a / p);
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_by_name_.find(name);
  if (it != counters_by_name_.end()) return it->second;
  counter_slots_.push_back(Counter{std::string(name), 0});
  Counter* c = &counter_slots_.back();
  counters_by_name_.emplace(c->name, c);
  return c;
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_by_name_.find(name);
  if (it != histograms_by_name_.end()) return it->second;
  histogram_slots_.emplace_back(std::string(name), std::move(bounds));
  Histogram* h = &histogram_slots_.back();
  histograms_by_name_.emplace(h->name(), h);
  return h;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_by_name_.find(name);
  return it == counters_by_name_.end() ? nullptr : it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_by_name_.find(name);
  return it == histograms_by_name_.end() ? nullptr : it->second;
}

uint64_t MetricsRegistry::Value(std::string_view name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->value.load();
}

void MetricsRegistry::Set(std::string_view name, uint64_t value) {
  counter(name)->value = value;
}

std::vector<const Counter*> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_by_name_.size());
  for (const auto& [name, c] : counters_by_name_) out.push_back(c);
  return out;
}

std::vector<const Histogram*> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_by_name_.size());
  for (const auto& [name, h] : histograms_by_name_) out.push_back(h);
  return out;
}

void WriteMetrics(JsonWriter* w, const MetricsRegistry& registry) {
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const Counter* c : registry.counters()) {
    w->KV(c->name, c->value.load());
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const Histogram* h : registry.histograms()) {
    w->Key(h->name()).BeginObject();
    w->KV("count", h->count());
    w->KV("sum", h->sum());
    w->Key("bounds").BeginArray();
    for (double b : h->bounds()) w->Number(b);
    w->EndArray();
    w->Key("buckets").BeginArray();
    for (const RelaxedCounter& n : h->buckets()) w->Uint(n.load());
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteMetrics(&w, *this);
  return w.str();
}

void SnapshotCostMeter(MetricsRegistry* registry, const CostMeter& meter) {
  registry->Set("cost.physical_reads", meter.physical_reads);
  registry->Set("cost.physical_writes", meter.physical_writes);
  registry->Set("cost.logical_reads", meter.logical_reads);
  registry->Set("cost.key_compares", meter.key_compares);
  registry->Set("cost.record_evals", meter.record_evals);
  registry->Set("cost.rid_ops", meter.rid_ops);
}

}  // namespace dynopt
