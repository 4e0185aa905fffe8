// Synthetic workload generation.
//
// The paper's phenomena — skew, host-variable sensitivity, clustering,
// cache interference — are distributional, so the experiments substitute
// Rdb/VMS production data with generators that control those distributions
// precisely. Column generators compose into table specs; two canonical
// tables (FAMILIES from §4, ORDERS for OLTP-style runs) are prebuilt.

#ifndef DYNOPT_WORKLOAD_WORKLOAD_H_
#define DYNOPT_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "util/rng.h"

namespace dynopt {

/// Produces one column value per row. `row` is the insertion index (so
/// generators can correlate with physical placement — clustering, §3b);
/// `so_far` holds the row's earlier columns (so generators can correlate
/// across columns — the §2 correlation study's workloads).
class ColumnGenerator {
 public:
  virtual ~ColumnGenerator() = default;
  virtual Value Next(Rng& rng, int64_t row, const Record& so_far) = 0;
};

using ColumnGeneratorPtr = std::shared_ptr<ColumnGenerator>;

/// Uniform integer in [lo, hi].
ColumnGeneratorPtr UniformInt(int64_t lo, int64_t hi);
/// Zipf-distributed rank in [0, n) with parameter theta (0 = uniform).
ColumnGeneratorPtr ZipfInt(uint64_t n, double theta);
/// The row index itself (a dense unique key).
ColumnGeneratorPtr SequentialInt();
/// Row-correlated value: floor(row * slope) + uniform noise in [0, noise] —
/// index order coincides with physical order (the clustering effect the
/// paper calls "hard to detect").
ColumnGeneratorPtr ClusteredInt(double slope, int64_t noise);
/// Value of an earlier column plus uniform noise in [0, noise] — columns
/// correlated in value but independent of physical row order (the case
/// where a second index scan shrinks nothing yet looks selective).
ColumnGeneratorPtr DerivedInt(size_t source_column, int64_t noise);
/// "<prefix><k>" with k uniform (theta = 0) or Zipf-skewed over n values.
ColumnGeneratorPtr CategoricalString(std::string prefix, uint64_t n,
                                     double theta = 0.0);

struct TableSpec {
  std::string name;
  std::vector<std::pair<Column, ColumnGeneratorPtr>> columns;
};

/// Creates the table and inserts `rows` generated records.
Result<Table*> BuildTable(Database* db, const TableSpec& spec, int64_t rows,
                          uint64_t seed);

/// FAMILIES(id, age, income, city[, payload]): §4's motivating table.
/// age uniform 0..99, income uniform 0..200000, city categorical.
/// `payload_bytes` > 0 appends a filler column so records-per-page match a
/// realistic row width (fat rows are what make RID-list shrinking pay).
Result<Table*> BuildFamilies(Database* db, int64_t rows, uint64_t seed = 42,
                             size_t payload_bytes = 0);

/// ORDERS(order_id, customer, amount, status, day[, payload]): OLTP table
/// with Zipf-skewed customers (theta) and a low-cardinality status column.
Result<Table*> BuildOrders(Database* db, int64_t rows, double zipf_theta,
                           uint64_t seed = 43, size_t payload_bytes = 0);

}  // namespace dynopt

#endif  // DYNOPT_WORKLOAD_WORKLOAD_H_
