#include "workload/workload.h"

#include <cmath>

namespace dynopt {

namespace {

class UniformIntGen final : public ColumnGenerator {
 public:
  UniformIntGen(int64_t lo, int64_t hi) : lo_(lo), hi_(hi) {}
  Value Next(Rng& rng, int64_t, const Record&) override { return rng.NextInt(lo_, hi_); }

 private:
  int64_t lo_, hi_;
};

class ZipfIntGen final : public ColumnGenerator {
 public:
  ZipfIntGen(uint64_t n, double theta) : zipf_(n, theta) {}
  Value Next(Rng& rng, int64_t, const Record&) override {
    return static_cast<int64_t>(zipf_.Next(rng));
  }

 private:
  ZipfGenerator zipf_;
};

class SequentialIntGen final : public ColumnGenerator {
 public:
  Value Next(Rng&, int64_t row, const Record&) override { return row; }
};

class ClusteredIntGen final : public ColumnGenerator {
 public:
  ClusteredIntGen(double slope, int64_t noise) : slope_(slope), noise_(noise) {}
  Value Next(Rng& rng, int64_t row, const Record&) override {
    int64_t base = static_cast<int64_t>(std::floor(row * slope_));
    return base + (noise_ > 0 ? rng.NextInt(0, noise_) : 0);
  }

 private:
  double slope_;
  int64_t noise_;
};

class CategoricalStringGen final : public ColumnGenerator {
 public:
  CategoricalStringGen(std::string prefix, uint64_t n, double theta)
      : prefix_(std::move(prefix)) {
    if (theta > 0.0) zipf_ = std::make_unique<ZipfGenerator>(n, theta);
    n_ = n;
  }
  Value Next(Rng& rng, int64_t, const Record&) override {
    uint64_t k = zipf_ != nullptr ? zipf_->Next(rng) : rng.NextBounded(n_);
    return prefix_ + std::to_string(k);
  }

 private:
  std::string prefix_;
  uint64_t n_;
  std::unique_ptr<ZipfGenerator> zipf_;
};

class DerivedIntGen final : public ColumnGenerator {
 public:
  DerivedIntGen(size_t source, int64_t noise) : source_(source), noise_(noise) {}
  Value Next(Rng& rng, int64_t, const Record& so_far) override {
    int64_t base = source_ < so_far.size() ? so_far[source_].AsInt64() : 0;
    return base + (noise_ > 0 ? rng.NextInt(0, noise_) : 0);
  }

 private:
  size_t source_;
  int64_t noise_;
};

}  // namespace

ColumnGeneratorPtr UniformInt(int64_t lo, int64_t hi) {
  return std::make_shared<UniformIntGen>(lo, hi);
}
ColumnGeneratorPtr ZipfInt(uint64_t n, double theta) {
  return std::make_shared<ZipfIntGen>(n, theta);
}
ColumnGeneratorPtr SequentialInt() {
  return std::make_shared<SequentialIntGen>();
}
ColumnGeneratorPtr ClusteredInt(double slope, int64_t noise) {
  return std::make_shared<ClusteredIntGen>(slope, noise);
}
ColumnGeneratorPtr DerivedInt(size_t source_column, int64_t noise) {
  return std::make_shared<DerivedIntGen>(source_column, noise);
}
ColumnGeneratorPtr CategoricalString(std::string prefix, uint64_t n,
                                     double theta) {
  return std::make_shared<CategoricalStringGen>(std::move(prefix), n, theta);
}

Result<Table*> BuildTable(Database* db, const TableSpec& spec, int64_t rows,
                          uint64_t seed) {
  std::vector<Column> columns;
  columns.reserve(spec.columns.size());
  for (const auto& [col, gen] : spec.columns) columns.push_back(col);
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          db->CreateTable(spec.name, Schema(columns)));
  Rng rng(seed);
  Record record;
  for (int64_t row = 0; row < rows; ++row) {
    record.clear();
    for (size_t c = 0; c < spec.columns.size(); ++c) {
      record.push_back(spec.columns[c].second->Next(rng, row, record));
    }
    DYNOPT_RETURN_IF_ERROR(table->Insert(record).status());
  }
  return table;
}

Result<Table*> BuildFamilies(Database* db, int64_t rows, uint64_t seed,
                             size_t payload_bytes) {
  TableSpec spec;
  spec.name = "families";
  spec.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"age", ValueType::kInt64}, UniformInt(0, 99)},
      {{"income", ValueType::kInt64}, UniformInt(0, 200000)},
      {{"city", ValueType::kString}, CategoricalString("city", 50)},
  };
  if (payload_bytes > 0) {
    spec.columns.push_back({{"payload", ValueType::kString},
                            CategoricalString(std::string(payload_bytes, 'p'),
                                              100)});
  }
  return BuildTable(db, spec, rows, seed);
}

Result<Table*> BuildOrders(Database* db, int64_t rows, double zipf_theta,
                           uint64_t seed, size_t payload_bytes) {
  TableSpec spec;
  spec.name = "orders";
  spec.columns = {
      {{"order_id", ValueType::kInt64}, SequentialInt()},
      {{"customer", ValueType::kInt64}, ZipfInt(10000, zipf_theta)},
      {{"amount", ValueType::kInt64}, UniformInt(1, 100000)},
      {{"status", ValueType::kString}, CategoricalString("st", 6, 1.0)},
      {{"day", ValueType::kInt64}, ClusteredInt(365.0 / rows, 2)},
  };
  if (payload_bytes > 0) {
    spec.columns.push_back({{"payload", ValueType::kString},
                            CategoricalString(std::string(payload_bytes, 'p'),
                                              100)});
  }
  return BuildTable(db, spec, rows, seed);
}

}  // namespace dynopt
