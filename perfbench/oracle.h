// The benchmark's data model and its naive oracle.
//
// Rows are FAMILIES-shaped (id, age, income, city, 100-byte payload) and are
// generated from the seed alone. The oracle keeps the benchmark's own copy
// of every row it loaded, inserted or deleted and answers each query by
// evaluating the restriction row by row — DESIGN §5's contract that the
// dynamic engine returns exactly what a table scan plus filter returns.
// Candidate rows are narrowed only by exact partitions (one id, one city,
// one age band), which cannot drop a qualifying row.

#ifndef DYNOPT_PERFBENCH_ORACLE_H_
#define DYNOPT_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/value.h"
#include "harness.h"

namespace perfbench {

enum Col : uint32_t { kId = 0, kAge = 1, kIncome = 2, kCity = 3, kPayload = 4 };

inline constexpr int64_t kAges = 100;        // age in [0, 100)
inline constexpr int64_t kIncomes = 200000;  // income in [0, 200000)
inline constexpr int kCities = 50;
inline constexpr size_t kPayloadBytes = 100;

struct Row {
  int64_t id = 0;
  int64_t age = 0;
  int64_t income = 0;
  int city = 0;
};

dynopt::Schema FamiliesSchema();
std::string CityName(int city);
std::string Payload(int64_t id);
dynopt::Record ToRecord(const Row& row);
/// A fresh row with a seed-drawn age, income and city.
Row RandomRow(int64_t id, Rng& rng);
/// Bytes of user data a row holds: three 8-byte integers plus its strings.
uint64_t UserBytes(const Row& row);

/// The restriction shapes the workloads use. Host variables are named after
/// the Params field they bind.
enum class Restriction : uint8_t {
  kId,         // id = :id
  kConj,       // age BETWEEN :alo AND :ahi AND income BETWEEN :ilo AND :ihi
               //   AND city = :city
  kAgeIncome,  // age BETWEEN :alo AND :ahi AND income BETWEEN :ilo AND :ihi
  kAnalytic,   // age BETWEEN :alo AND :ahi AND income <= :imax
  kIncome,     // income BETWEEN :ilo AND :ihi
  kAll,        // TRUE
};

struct Params {
  int64_t id = 0;
  int64_t alo = 0, ahi = 0;
  int64_t ilo = 0, ihi = 0;
  int64_t imax = 0;
  int city = 0;
};

/// Order-insensitive digest of what a plan returned, recorded during the
/// timed window and compared with the oracle after it.
struct Outcome {
  bool ok = true;              // every engine call returned OK
  uint64_t rows = 0;           // rows at the plan root
  uint64_t set_hash = 0;       // sum of row hashes
  int64_t value = 0;           // aggregate / EXISTS value (single-row plans)
  bool ordered = true;         // the order column never descended
  /// LIMIT results: (id, row hash) of each row, checked by id lookup.
  std::vector<std::pair<int64_t, uint64_t>> kept;
};

/// What the plan above the retrieval does with its rows.
enum class Top : uint8_t { kNone, kLimit, kExists, kCount, kSum, kSort, kDistinct };

struct QueryShape {
  std::string name;
  Restriction restriction = Restriction::kAll;
  Top top = Top::kNone;
  uint64_t limit = 0;                  // kLimit
  std::vector<uint32_t> projection;    // schema columns delivered
  std::optional<uint32_t> order_by;    // ORDER BY on the retrieval
  size_t column = 0;                   // kSum / kSort: position in projection
};

uint64_t HashValues(const std::vector<dynopt::Value>& values);

class Oracle {
 public:
  /// Appends a row; its id must equal the current row count.
  void Add(const Row& row);
  void Delete(int64_t id) { alive_[static_cast<size_t>(id)] = 0; }
  bool Alive(int64_t id) const {
    return id >= 0 && static_cast<size_t>(id) < rows_.size() &&
           alive_[static_cast<size_t>(id)] != 0;
  }
  const std::vector<Row>& rows() const { return rows_; }
  uint64_t LiveUserBytes() const;

  /// Builds the city and age partitions that speed up candidate selection.
  /// Only valid while the row set does not change (read-only workloads).
  void Freeze();

  /// Returns an empty string when `got` is what the shape must return under
  /// `p`, else a description of the mismatch.
  std::string Check(const QueryShape& shape, const Params& p,
                    const Outcome& got) const;

  /// Hash of the row's projected values, as HashValues computes it on engine
  /// output.
  static uint64_t HashRow(const Row& row, const std::vector<uint32_t>& proj);

 private:
  static bool Matches(Restriction r, const Params& p, const Row& row);
  template <typename Fn>
  void ForEachMatch(Restriction r, const Params& p, Fn&& fn) const;

  std::vector<Row> rows_;  // index == id
  std::vector<char> alive_;
  bool frozen_ = false;
  std::vector<std::vector<uint32_t>> by_city_;
  std::vector<uint32_t> by_age_;           // ids in age order
  std::vector<size_t> age_start_;          // by_age_ offset of each age
};

}  // namespace perfbench

#endif  // DYNOPT_PERFBENCH_ORACLE_H_
