// Typed values and column schemas.
//
// dynopt supports three column types — INT64, DOUBLE, STRING — enough to
// express the paper's workloads (numeric range restrictions, skewed keys,
// pattern-matching predicates) while keeping encodings order-preserving.

#ifndef DYNOPT_EXPR_VALUE_H_
#define DYNOPT_EXPR_VALUE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace dynopt {

enum class ValueType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

std::string_view ValueTypeName(ValueType t);

/// A typed scalar. Comparisons between mismatched types are a bind-time
/// error surfaced by the expression layer, never a silent coercion.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t v) : v_(v) {}                   // NOLINT(runtime/explicit)
  Value(double v) : v_(v) {}                    // NOLINT(runtime/explicit)
  Value(std::string v) : v_(std::move(v)) {}    // NOLINT(runtime/explicit)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(runtime/explicit)

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison; InvalidArgument on type mismatch.
  Result<int> Compare(const Value& other) const;

  /// Appends the order-preserving key encoding (see util/key_codec.h).
  void EncodeKey(std::string* out) const;

  std::string ToString() const;

  bool operator==(const Value& o) const { return v_ == o.v_; }

 private:
  std::variant<int64_t, double, std::string> v_;
};

/// A column definition.
struct Column {
  std::string name;
  ValueType type;
};

/// An ordered list of columns describing a table's records.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or NotFound.
  Result<uint32_t> ColumnIndex(std::string_view name) const;

 private:
  std::vector<Column> columns_;
};

/// A full record: one Value per schema column.
using Record = std::vector<Value>;

/// Flat, SIMD-friendly column storage for batched execution: one typed
/// array per column instead of one Value variant per cell. A vector starts
/// empty, adopts the type of its first append, and exposes raw `int64_t*`
/// / `double*` data for the branch-free predicate loops. Appending a
/// mismatched type demotes the vector to a generic Value array (needed by
/// operator-level batches over heterogeneous test rows); batch evaluation
/// then falls back to per-element Value semantics.
///
/// String slots are recycled across Clear() — `AppendString` assigns into
/// an already-allocated std::string where one exists, so a steady-state
/// scan performs no per-row allocations for string columns.
class ColumnVector {
 public:
  enum class Mode : uint8_t { kEmpty, kInt64, kDouble, kString, kMixed };

  size_t size() const { return size_; }
  Mode mode() const { return mode_; }
  bool is_mixed() const { return mode_ == Mode::kMixed; }

  /// Drops all elements but keeps every allocation (string slots included).
  void Clear() {
    size_ = 0;
    mode_ = Mode::kEmpty;
    i64_.clear();
    f64_.clear();
    mixed_.clear();
  }
  void Reserve(size_t n);

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void Append(const Value& v);
  /// Grows the vector by `n` elements of `type` for the caller to fill
  /// through the mutable typed data: one resize for the lot, and string
  /// slots keep their recycled allocations. InvalidArgument when the
  /// vector already holds another type.
  Status Extend(ValueType type, size_t n);
  /// Gathers elements `rows[0..n)` of `src` onto the end: a typed copy when
  /// both vectors hold one type, per-Value appends (and demotion) otherwise.
  void AppendFrom(const ColumnVector& src, const uint32_t* rows, size_t n);

  /// Raw typed data; valid only in the matching mode.
  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  const std::string& StringAt(size_t i) const { return str_[i]; }
  int64_t* mutable_i64_data() { return i64_.data(); }
  double* mutable_f64_data() { return f64_.data(); }
  std::string* mutable_str_data() { return str_.data(); }

  /// Element `i` as a Value (copies; use the typed accessors in hot loops).
  Value ValueAt(size_t i) const;

 private:
  void DemoteToMixed();

  Mode mode_ = Mode::kEmpty;
  size_t size_ = 0;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;  // size_ may trail str_.size() (slot reuse)
  std::vector<Value> mixed_;
};

/// Total order over values of any types (type tag first, then value):
/// used by sort/distinct operators where columns are homogeneous anyway.
inline bool TotalValueLess(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type();
  auto c = a.Compare(b);
  return c.ok() && *c < 0;
}

/// Serializes `record` (validated against `schema`) to bytes.
Status SerializeRecord(const Schema& schema, const Record& record,
                       std::string* out);

/// Parses bytes produced by SerializeRecord: the row-at-a-time path.
Status DeserializeRecord(const Schema& schema, std::string_view data,
                         Record* out);

/// The batched scans' decoder: appends column `i` of every record in
/// `records` to `dests[i]`, where a null entry skips that column without
/// materializing it (the encoding is skippable: numerics are fixed 8
/// bytes, strings carry a length prefix). Each active column grows once
/// per call (ColumnVector::Extend). `dests` must hold
/// `schema.num_columns()` entries. Corruption when a record is truncated
/// or carries trailing bytes; the columns' contents are then unspecified.
Status DecodeRecords(const Schema& schema,
                     std::span<const std::string_view> records,
                     ColumnVector* const* dests);

}  // namespace dynopt

#endif  // DYNOPT_EXPR_VALUE_H_
