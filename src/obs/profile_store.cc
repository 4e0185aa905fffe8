#include "obs/profile_store.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/coding.h"

namespace dynopt {

namespace {

constexpr uint32_t kProfileStoreVersion = 1;

// Decodes `n` bucket counts one at a time, so a corrupt count fails on the
// bytes actually present instead of sizing an allocation.
bool ReadBuckets(ByteReader* r, uint32_t n, std::vector<uint64_t>* buckets) {
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t b;
    if (!r->U64(&b)) return false;
    buckets->push_back(b);
  }
  return true;
}

void ObserveBucketed(std::vector<uint64_t>* buckets,
                     const std::vector<double>& bounds, double value) {
  if (buckets->empty()) buckets->assign(bounds.size() + 1, 0);
  size_t i =
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin();
  (*buckets)[i]++;
}

}  // namespace

double ProfileStore::ClassAggregate::LatencyPercentile(double q) const {
  return PercentileFromBuckets(LatencyBucketBounds(), latency_buckets, q);
}

double ProfileStore::ClassAggregate::RowsQErrorPercentile(double q) const {
  return PercentileFromBuckets(QErrorBucketBounds(), rows_q_error_buckets, q);
}

void ProfileStore::Record(std::string_view query_class, const Sample& sample) {
  double rows_q = QError(sample.predicted_rows, sample.actual_rows);
  double cost_q = QError(sample.predicted_cost, sample.actual_cost);
  std::lock_guard<std::mutex> lock(mu_);
  ClassAggregate& agg = classes_[std::string(query_class)];
  agg.executions++;
  agg.latency_sum_micros += sample.latency_micros;
  ObserveBucketed(&agg.latency_buckets, LatencyBucketBounds(),
                  sample.latency_micros);
  agg.rows_q_error_sum += rows_q;
  agg.rows_q_error_max = std::max(agg.rows_q_error_max, rows_q);
  ObserveBucketed(&agg.rows_q_error_buckets, QErrorBucketBounds(), rows_q);
  agg.cost_q_error_sum += cost_q;
  agg.cost_q_error_max = std::max(agg.cost_q_error_max, cost_q);
  agg.total_rows += sample.actual_rows;
  agg.total_cost += sample.actual_cost;
  agg.plan_counts[sample.plan]++;
}

size_t ProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return classes_.size();
}

std::optional<ProfileStore::ClassAggregate> ProfileStore::Find(
    std::string_view query_class) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(std::string(query_class));
  if (it == classes_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> ProfileStore::Classes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [key, agg] : classes_) out.push_back(key);
  return out;
}

std::string ProfileStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string blob;
  PutU32(&blob, kProfileStoreVersion);
  PutU32(&blob, static_cast<uint32_t>(classes_.size()));
  for (const auto& [key, agg] : classes_) {
    PutStr(&blob, key);
    PutU64(&blob, agg.executions);
    PutF64(&blob, agg.latency_sum_micros);
    PutU32(&blob, static_cast<uint32_t>(agg.latency_buckets.size()));
    for (uint64_t b : agg.latency_buckets) PutU64(&blob, b);
    PutF64(&blob, agg.rows_q_error_sum);
    PutF64(&blob, agg.rows_q_error_max);
    PutU32(&blob, static_cast<uint32_t>(agg.rows_q_error_buckets.size()));
    for (uint64_t b : agg.rows_q_error_buckets) PutU64(&blob, b);
    PutF64(&blob, agg.cost_q_error_sum);
    PutF64(&blob, agg.cost_q_error_max);
    PutF64(&blob, agg.total_rows);
    PutF64(&blob, agg.total_cost);
    PutU32(&blob, static_cast<uint32_t>(agg.plan_counts.size()));
    for (const auto& [plan, count] : agg.plan_counts) {
      PutStr(&blob, plan);
      PutU64(&blob, count);
    }
  }
  return blob;
}

Status ProfileStore::Load(std::string_view blob) {
  std::map<std::string, ClassAggregate> loaded;
  ByteReader r(blob);
  uint32_t version, class_count;
  if (!r.U32(&version) || version != kProfileStoreVersion) {
    return Status::Corruption("profile store: bad blob version");
  }
  if (!r.U32(&class_count)) {
    return Status::Corruption("profile store: truncated header");
  }
  for (uint32_t i = 0; i < class_count; ++i) {
    std::string key;
    ClassAggregate agg;
    uint32_t n = 0;
    bool ok = r.Str(&key) && r.U64(&agg.executions) &&
              r.F64(&agg.latency_sum_micros) && r.U32(&n) &&
              ReadBuckets(&r, n, &agg.latency_buckets) &&
              r.F64(&agg.rows_q_error_sum) && r.F64(&agg.rows_q_error_max) &&
              r.U32(&n) && ReadBuckets(&r, n, &agg.rows_q_error_buckets);
    ok = ok && r.F64(&agg.cost_q_error_sum) && r.F64(&agg.cost_q_error_max) &&
         r.F64(&agg.total_rows) && r.F64(&agg.total_cost) && r.U32(&n);
    for (uint32_t p = 0; ok && p < n; ++p) {
      std::string plan;
      uint64_t count;
      ok = r.Str(&plan) && r.U64(&count);
      if (ok) agg.plan_counts[std::move(plan)] = count;
    }
    if (!ok) return Status::Corruption("profile store: truncated class");
    loaded[std::move(key)] = std::move(agg);
  }
  if (!r.exhausted()) {
    return Status::Corruption("profile store: trailing bytes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  classes_ = std::move(loaded);
  return Status::OK();
}

std::string ProfileStore::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.KV("classes", static_cast<uint64_t>(classes_.size()));
  w.Key("profiles").BeginObject();
  for (const auto& [key, agg] : classes_) {
    w.Key(key).BeginObject();
    w.KV("executions", agg.executions);
    w.KV("mean_latency_micros", agg.mean_latency_micros());
    w.KV("p50_latency_micros", agg.LatencyPercentile(0.50));
    w.KV("p95_latency_micros", agg.LatencyPercentile(0.95));
    w.KV("p99_latency_micros", agg.LatencyPercentile(0.99));
    w.KV("rows_q_error_mean",
         agg.executions > 0
             ? agg.rows_q_error_sum / static_cast<double>(agg.executions)
             : 0);
    w.KV("rows_q_error_p95", agg.RowsQErrorPercentile(0.95));
    w.KV("rows_q_error_max", agg.rows_q_error_max);
    w.KV("cost_q_error_mean",
         agg.executions > 0
             ? agg.cost_q_error_sum / static_cast<double>(agg.executions)
             : 0);
    w.KV("cost_q_error_max", agg.cost_q_error_max);
    w.KV("total_rows", agg.total_rows);
    w.KV("total_cost", agg.total_cost);
    w.Key("plans").BeginObject();
    for (const auto& [plan, count] : agg.plan_counts) w.KV(plan, count);
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace dynopt
