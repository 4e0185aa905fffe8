#include "exec/operators.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <string_view>

namespace dynopt {

namespace {

using Mode = ColumnVector::Mode;

/// Three-way comparison of a[i] and b[j] under TotalValueLess: typed when
/// both columns hold strings, by Value otherwise. SORT, DISTINCT and
/// MIN/MAX all order and equate cells by it.
int CompareCells(const ColumnVector& a, uint32_t i, const ColumnVector& b,
                 uint32_t j) {
  if (a.mode() == Mode::kString && b.mode() == Mode::kString) {
    int r = a.StringAt(i).compare(b.StringAt(j));
    return r < 0 ? -1 : (r > 0 ? 1 : 0);
  }
  Value x = a.ValueAt(i), y = b.ValueAt(j);
  return TotalValueLess(x, y) ? -1 : (TotalValueLess(y, x) ? 1 : 0);
}

/// Three-way comparison of row a[i] and row b[j], column by column.
int CompareRows(const RowBatch& a, uint32_t i, const RowBatch& b, uint32_t j) {
  for (uint32_t c = 0; c < a.num_columns(); ++c) {
    int cmp = CompareCells(a.col(c), i, b.col(c), j);
    if (cmp != 0) return cmp;
  }
  return 0;
}

/// Hash of element `i`, equal for equal values whatever the column's mode.
uint64_t CellHash(const ColumnVector& c, size_t i) {
  if (c.mode() == Mode::kString) {
    return std::hash<std::string_view>{}(c.StringAt(i));
  }
  Value v = c.ValueAt(i);
  if (v.is_int64()) return std::hash<int64_t>{}(v.AsInt64());
  if (v.is_double()) return std::hash<double>{}(v.AsDouble());
  return std::hash<std::string_view>{}(v.AsString());
}

uint64_t RowHash(const RowBatch& batch, uint32_t r) {
  uint64_t h = 0;
  for (uint32_t c = 0; c < batch.num_columns(); ++c) {
    h ^= CellHash(batch.col(c), r) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

/// Adds the first `n` elements of a numeric column to `*sum`, in order.
Status SumColumn(const ColumnVector& c, size_t n, double* sum) {
  if (c.mode() == Mode::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      *sum += static_cast<double>(c.i64_data()[i]);
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    Value v = c.ValueAt(i);
    if (v.is_string()) {
      return Status::InvalidArgument("SUM over non-numeric column");
    }
    *sum += v.is_int64() ? static_cast<double>(v.AsInt64()) : v.AsDouble();
  }
  return Status::OK();
}

}  // namespace

Result<bool> RowOperator::NextBatch(std::vector<std::vector<Value>>* rows,
                                    size_t max_rows) {
  DYNOPT_ASSIGN_OR_RETURN(bool more, NextBatch(&adapter_batch_, max_rows));
  const RowBatch& b = adapter_batch_;
  for (uint32_t r = 0; r < b.num_rows(); ++r) {
    std::vector<Value>& row = rows->emplace_back();
    row.reserve(b.num_columns());
    for (uint32_t c = 0; c < b.num_columns(); ++c) {
      row.push_back(b.col(c).ValueAt(r));
    }
  }
  return more;
}

void RowBuffer::Clear() {
  rows_.Clear();
  order_.clear();
  pos_ = 0;
}

void RowBuffer::Append(const RowBatch& batch, const uint32_t* rows,
                       size_t n) {
  if (n == 0) return;
  if (rows_.num_rows() == 0) rows_.Reset(batch.num_columns());
  rows_.Append(batch, rows, n);
}

void RowBuffer::SortBy(size_t col) {
  size_t n = rows_.num_rows();
  order_.resize(n);
  pos_ = 0;
  if (n == 0) return;
  const ColumnVector& key = rows_.col(static_cast<uint32_t>(col));
  if (key.mode() == Mode::kInt64) {
    // (key, arrival position) pairs: the position breaks ties, so the
    // plain sort is stable.
    keyed_.resize(n);
    const int64_t* k = key.i64_data();
    for (uint32_t i = 0; i < n; ++i) keyed_[i] = {k[i], i};
    std::sort(keyed_.begin(), keyed_.end());
    for (size_t i = 0; i < n; ++i) order_[i] = keyed_[i].second;
    return;
  }
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&key](uint32_t a, uint32_t b) {
                     return CompareCells(key, a, key, b) < 0;
                   });
}

void RowBuffer::SortRows() {
  order_.resize(rows_.num_rows());
  std::iota(order_.begin(), order_.end(), 0u);
  pos_ = 0;
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return CompareRows(rows_, a, rows_, b) < 0;
  });
}

bool RowBuffer::Serve(RowBatch* out, size_t max_rows) {
  out->Reset(rows_.num_columns());
  size_t n = std::min(max_rows, order_.size() - pos_);
  if (n == 0) return false;
  out->Append(rows_, order_.data() + pos_, n);
  pos_ += n;
  return true;
}

SortOperator::SortOperator(RowOperatorPtr child, size_t sort_col)
    : child_(std::move(child)), sort_col_(sort_col) {}

Status SortOperator::Open() {
  DYNOPT_RETURN_IF_ERROR(child_->Open());
  rows_.Clear();
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    if (in_.num_rows() > 0) {
      if (sort_col_ >= in_.num_columns()) {
        return Status::InvalidArgument("sort column beyond row arity");
      }
      rows_.Append(in_);
    }
    if (!more) break;
    DYNOPT_RETURN_IF_ERROR(PollDrain());
  }
  rows_.SortBy(sort_col_);
  return Status::OK();
}

Result<bool> SortOperator::NextBatch(RowBatch* out, size_t max_rows) {
  return rows_.Serve(out, max_rows);
}

LimitOperator::LimitOperator(RowOperatorPtr child, uint64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOperator::Open() {
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitOperator::NextBatch(RowBatch* out, size_t max_rows) {
  if (produced_ >= limit_ || max_rows == 0) {
    out->Clear();
    return false;
  }
  size_t want = static_cast<size_t>(
      std::min<uint64_t>(max_rows, limit_ - produced_));
  DYNOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out, want));
  produced_ += out->num_rows();
  return more;
}

ExistsOperator::ExistsOperator(RowOperatorPtr child)
    : child_(std::move(child)) {}

Status ExistsOperator::Open() {
  done_ = false;
  return child_->Open();
}

Result<bool> ExistsOperator::NextBatch(RowBatch* out, size_t max_rows) {
  out->Reset(1);
  if (done_ || max_rows == 0) return false;
  done_ = true;
  bool any = false;
  for (bool more = true; more && !any;) {
    DYNOPT_ASSIGN_OR_RETURN(more, child_->NextBatch(&probe_, 1));
    any = probe_.num_rows() > 0;
  }
  out->AppendRow({Value(static_cast<int64_t>(any ? 1 : 0))});
  return true;
}

DistinctOperator::DistinctOperator(RowOperatorPtr child)
    : child_(std::move(child)) {}

Status DistinctOperator::Open() {
  DYNOPT_RETURN_IF_ERROR(child_->Open());
  rows_.Clear();
  seen_.clear();
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    for (uint32_t r = 0; r < in_.num_rows(); ++r) {
      uint64_t h = RowHash(in_, r);
      auto [lo, hi] = seen_.equal_range(h);
      if (std::any_of(lo, hi, [&](const auto& s) {
            return CompareRows(rows_.rows(), s.second, in_, r) == 0;
          })) {
        continue;
      }
      seen_.emplace(h, static_cast<uint32_t>(rows_.rows().num_rows()));
      rows_.Append(in_, &r, 1);
    }
    if (!more) break;
    DYNOPT_RETURN_IF_ERROR(PollDrain());
  }
  rows_.SortRows();
  return Status::OK();
}

Result<bool> DistinctOperator::NextBatch(RowBatch* out, size_t max_rows) {
  return rows_.Serve(out, max_rows);
}

AggregateOperator::AggregateOperator(RowOperatorPtr child, AggregateKind kind,
                                     size_t col)
    : child_(std::move(child)), kind_(kind), col_(col) {}

Status AggregateOperator::Open() {
  DYNOPT_RETURN_IF_ERROR(child_->Open());
  done_ = false;

  int64_t count = 0;
  double sum = 0;
  bool any = false;
  Value best;
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
    size_t n = in_.num_rows();
    count += static_cast<int64_t>(n);
    if (n > 0 && kind_ != AggregateKind::kCount) {
      if (col_ >= in_.num_columns()) {
        return Status::InvalidArgument("aggregate column beyond row arity");
      }
      const ColumnVector& c = in_.col(static_cast<uint32_t>(col_));
      if (kind_ == AggregateKind::kSum) {
        DYNOPT_RETURN_IF_ERROR(SumColumn(c, n, &sum));
      } else {
        // The batch's first extreme, then against the running one: the
        // earliest extreme wins ties, as in a row-by-row fold.
        int sign = kind_ == AggregateKind::kMin ? 1 : -1;
        uint32_t pick = 0;
        for (uint32_t i = 1; i < n; ++i) {
          if (sign * CompareCells(c, i, c, pick) < 0) pick = i;
        }
        Value v = c.ValueAt(pick);
        if (!any || (kind_ == AggregateKind::kMin ? TotalValueLess(v, best)
                                                  : TotalValueLess(best, v))) {
          best = std::move(v);
        }
        any = true;
      }
    }
    if (!more) break;
    DYNOPT_RETURN_IF_ERROR(PollDrain());
  }
  switch (kind_) {
    case AggregateKind::kCount:
      result_ = Value(count);
      break;
    case AggregateKind::kSum:
      result_ = Value(sum);
      break;
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      if (!any) return Status::NotFound("MIN/MAX over empty input");
      result_ = std::move(best);
      break;
  }
  return Status::OK();
}

Result<bool> AggregateOperator::NextBatch(RowBatch* out, size_t max_rows) {
  out->Reset(1);
  if (done_ || max_rows == 0) return false;
  done_ = true;
  out->AppendRow({result_});
  return true;
}

Status ProfilingOperator::Open() {
  auto start = std::chrono::steady_clock::now();
  Status st = child_->Open();
  // Register after the child's Open: the retrieval leaf resets the profile
  // in its own Open, and inner wrappers must register before outer ones.
  span_ = profile_ != nullptr ? profile_->AddOperatorSpan(name_) : nullptr;
  if (span_ != nullptr) {
    span_->elapsed_micros += std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  }
  return st;
}

Result<bool> ProfilingOperator::NextBatch(RowBatch* out, size_t max_rows) {
  SpanTimer timer(span_);
  auto more = child_->NextBatch(out, max_rows);
  if (span_ != nullptr && more.ok()) span_->actual_rows += out->num_rows();
  return more;
}

Result<bool> VectorSourceOperator::NextBatch(RowBatch* out, size_t max_rows) {
  size_t arity = rows_.empty() ? 0 : rows_[0].size();
  out->Reset(arity);
  size_t end = std::min(rows_.size(), pos_ + max_rows);
  if (pos_ >= end) return false;
  for (; pos_ < end; ++pos_) {
    if (rows_[pos_].size() != arity) {
      return Status::InvalidArgument("source rows differ in arity");
    }
    out->AppendRow(rows_[pos_]);
  }
  return true;
}

}  // namespace dynopt
