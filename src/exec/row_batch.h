// Batched data movement units for the vectorized execution core.
//
// A RowBatch is the tentpole abstraction of the batched executor: up to
// kDefaultBatchRows rows held column-major (one ColumnVector per active
// column) plus a selection vector of surviving row indexes. Steppers fill
// a batch per Step() quantum — one governance poll, one meter scope, one
// profiling charge per batch instead of per row — and predicates filter
// the selection with branch-free typed loops (expr/predicate.h's
// FilterSelection). The same type carries rows out of the retrieval
// engine and between plan operators, in the dense layout (Reset): every
// column materialized and every row selected.
//
// A RidBatch is the index-side sibling: a leaf-copy of qualifying
// (key, rid) entries harvested under a single B+-tree page pin, so the
// lock is taken once per leaf rather than once per entry.
//
// Both batches recycle their allocations across Clear(): steady-state
// scans perform no per-row heap allocation.

#ifndef DYNOPT_EXEC_ROW_BATCH_H_
#define DYNOPT_EXEC_ROW_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "expr/value.h"
#include "index/rid_batch.h"
#include "storage/page.h"

namespace dynopt {

/// Target batch size (rows per Step quantum). 1024 keeps a batch's column
/// data L2-resident for typical arities while amortizing poll/lock costs
/// by three orders of magnitude over row-at-a-time.
inline constexpr size_t kDefaultBatchRows = 1024;

/// Column-major row batch with a selection vector.
///
/// Configure() fixes the table arity and which columns are *active*
/// (materialized); inactive columns keep a null dest pointer so
/// DecodeRecords skips their bytes without copying. The
/// selection vector `sel` lists the row indexes still alive after
/// filtering; `rids` is parallel to the rows (not the selection).
class RowBatch {
 public:
  /// Prepares the batch for a table of `num_columns` columns of which
  /// `active` are materialized. Idempotent; keeps allocations.
  void Configure(size_t num_columns, const std::set<uint32_t>& active,
                 size_t capacity = kDefaultBatchRows) {
    cols_.resize(num_columns);
    dests_.assign(num_columns, nullptr);
    for (uint32_t c : active) {
      if (c < num_columns) {
        cols_[c].Reserve(capacity);
        dests_[c] = &cols_[c];
      }
    }
    rids_.reserve(capacity);
    sel_.reserve(capacity);
  }

  /// Drops all rows and shapes the batch dense: `num_columns` columns, all
  /// materialized. Keeps allocations.
  void Reset(size_t num_columns) {
    cols_.resize(num_columns);
    dests_.resize(num_columns);
    for (size_t c = 0; c < num_columns; ++c) dests_[c] = &cols_[c];
    Clear();
  }

  /// Drops all rows; keeps column/string allocations and configuration.
  void Clear() {
    for (auto& c : cols_) c.Clear();
    rids_.clear();
    sel_.clear();
    num_rows_ = 0;
  }

  size_t num_rows() const { return num_rows_; }
  /// Rows the per-row arrays hold without growing (the realloc audit).
  size_t allocated_rows() const { return rids_.capacity(); }

  /// Destination array for DecodeRecords (null = skip column).
  ColumnVector* const* dests() const { return dests_.data(); }
  const ColumnVector* const* cols() const { return dests_.data(); }
  size_t num_columns() const { return cols_.size(); }
  const ColumnVector& col(uint32_t c) const { return cols_[c]; }

  /// Registers one appended row (its columns already pushed via dests())
  /// as selected.
  void AddRow(const Rid& rid) {
    rids_.push_back(rid);
    sel_.push_back(static_cast<uint32_t>(num_rows_));
    num_rows_++;
  }

  /// AddRow for `rids[0..n)` at once. The per-row arrays grow by doubling,
  /// as n AddRow calls would grow them.
  void AddRows(const Rid* rids, size_t n) {
    size_t need = num_rows_ + n;
    if (need > rids_.capacity()) {
      size_t cap = std::max<size_t>(rids_.capacity(), 1);
      while (cap < need) cap *= 2;
      rids_.reserve(cap);
      sel_.reserve(cap);
    }
    rids_.insert(rids_.end(), rids, rids + n);
    for (size_t i = 0; i < n; ++i) {
      sel_.push_back(static_cast<uint32_t>(num_rows_ + i));
    }
    num_rows_ = need;
  }

  /// Appends rows `rows[0..n)` of `src`, rids included, as selected rows.
  /// Column j is gathered from `src` column `src_cols[j]`, or from column
  /// j when `src_cols` is null; every column of this batch is filled.
  void Append(const RowBatch& src, const uint32_t* rows, size_t n,
              const uint32_t* src_cols = nullptr) {
    for (size_t j = 0; j < cols_.size(); ++j) {
      cols_[j].AppendFrom(src.cols_[src_cols != nullptr ? src_cols[j] : j],
                          rows, n);
    }
    for (size_t i = 0; i < n; ++i) {
      rids_.push_back(src.rids_[rows[i]]);
      sel_.push_back(static_cast<uint32_t>(num_rows_ + i));
    }
    num_rows_ += n;
  }

  /// Appends one row, one value per column, as a selected row with no RID.
  void AppendRow(const std::vector<Value>& values) {
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(values[c]);
    AddRow(Rid());
  }

  const Rid& rid(size_t row) const { return rids_[row]; }
  std::vector<uint32_t>& sel() { return sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

 private:
  size_t num_rows_ = 0;
  std::vector<ColumnVector> cols_;
  std::vector<ColumnVector*> dests_;
  std::vector<Rid> rids_;
  std::vector<uint32_t> sel_;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_ROW_BATCH_H_
