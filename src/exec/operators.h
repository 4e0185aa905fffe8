// Volcano-style operators over column batches.
//
// A thin pull-based executor sits above single-table retrieval so the goal
// inference of §4 has real plans to walk: SORT / DISTINCT / aggregates are
// pipeline breakers (total-time), LIMIT / EXISTS are early terminators
// (fast-first). Operators pull dense RowBatches from their child — the
// retrieval engine's own batches at the leaf — and work on the column
// data: SORT orders (INT64 key, arrival position) pairs, DISTINCT hashes
// cells, SUM folds INT64 arrays. Rows become value vectors
// only at the plan root, through the one row adapter NextBatch(rows*,
// max_rows); max_rows = 1 pulls exactly one row through the whole plan,
// so early terminators keep their fast-first semantics.

#ifndef DYNOPT_EXEC_OPERATORS_H_
#define DYNOPT_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/row_batch.h"
#include "expr/value.h"
#include "governance/query_context.h"
#include "obs/profile.h"
#include "util/status.h"

namespace dynopt {

class RowOperator {
 public:
  virtual ~RowOperator() = default;

  /// Prepares the operator; must be called once before pulling rows.
  virtual Status Open() = 0;

  /// Batch pull: replaces `*out` with the next rows, at most `max_rows`,
  /// as a dense batch (every column materialized, every row selected).
  /// Returns false only at end of stream, with `*out` empty; a true return
  /// with zero rows is legal (the batch filtered to nothing) and means
  /// "call again".
  virtual Result<bool> NextBatch(RowBatch* out,
                                 size_t max_rows = kDefaultBatchRows) = 0;

  /// The row adapter: appends up to `max_rows` rows to `*rows` (which is
  /// not cleared), converting only the rows it returns. Same end-of-stream
  /// contract as the batch pull. `max_rows` = 1 is the one-row cursor.
  Result<bool> NextBatch(std::vector<std::vector<Value>>* rows,
                         size_t max_rows = kDefaultBatchRows);

  /// Attaches governance (null detaches). Materializing operators poll it
  /// at drain-loop batch boundaries, so a pipeline breaker cannot swallow
  /// a cancellation between the retrieval leaf and the plan root.
  void set_context(QueryContext* ctx) { ctx_ = ctx; }

 protected:
  /// Drain-loop batch boundary: one governance poll per drained batch.
  Status PollDrain() {
    if (ctx_ == nullptr) return Status::OK();
    return ctx_->Check();
  }
  QueryContext* ctx_ = nullptr;

 private:
  RowBatch adapter_batch_;  // the row adapter's pull
};

using RowOperatorPtr = std::unique_ptr<RowOperator>;

/// Rows a pipeline breaker holds, column-major, and the order it serves
/// them in. SORT, DISTINCT and the retrieval leaf's ORDER BY fallback
/// materialize here.
class RowBuffer {
 public:
  /// Drops every row; keeps allocations.
  void Clear();
  /// Appends rows `rows[0..n)` of `batch`. Every batch appended between
  /// two Clears must have the same arity.
  void Append(const RowBatch& batch, const uint32_t* rows, size_t n);
  void Append(const RowBatch& batch) {
    Append(batch, batch.sel().data(), batch.num_rows());
  }
  const RowBatch& rows() const { return rows_; }

  /// Orders the rows ascending on column `col` (which the rows must have)
  /// under TotalValueLess, ties in arrival order.
  void SortBy(size_t col);
  /// Orders the rows ascending, column by column under TotalValueLess.
  void SortRows();
  /// Replaces `*out` with the next rows in the order the last SortBy or
  /// SortRows set, at most `max_rows`; false once every row is served.
  bool Serve(RowBatch* out, size_t max_rows);

 private:
  RowBatch rows_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
  std::vector<std::pair<int64_t, uint32_t>> keyed_;  // SortBy's INT64 keys
};

/// Materializing sort on row position `sort_col` (ascending, stable).
class SortOperator final : public RowOperator {
 public:
  SortOperator(RowOperatorPtr child, size_t sort_col);
  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  RowOperatorPtr child_;
  size_t sort_col_;
  RowBatch in_;
  RowBuffer rows_;
};

/// Passes through the first `limit` rows, then stops pulling the child —
/// the forceful "close retrieval" that makes fast-first pay off.
class LimitOperator final : public RowOperator {
 public:
  LimitOperator(RowOperatorPtr child, uint64_t limit);
  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  RowOperatorPtr child_;
  uint64_t limit_;
  uint64_t produced_ = 0;
};

/// Emits one row [INT64 0|1]: whether the child produced any row. Stops
/// the child after the first row (EXISTS semantics) — pulls one row at a
/// time so the child never does a full batch of work.
class ExistsOperator final : public RowOperator {
 public:
  explicit ExistsOperator(RowOperatorPtr child);
  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  RowOperatorPtr child_;
  bool done_ = false;
  RowBatch probe_;
};

/// Duplicate elimination over whole rows: hashes cells as rows arrive,
/// keeps the first of each duplicate set, and emits the survivors in
/// ascending row order.
class DistinctOperator final : public RowOperator {
 public:
  explicit DistinctOperator(RowOperatorPtr child);
  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  RowOperatorPtr child_;
  RowBatch in_;
  RowBuffer rows_;
  std::unordered_multimap<uint64_t, uint32_t> seen_;  // row hash -> survivor
};

enum class AggregateKind : uint8_t { kCount, kSum, kMin, kMax };

/// Drains the child and emits a single aggregate row. COUNT emits INT64;
/// SUM/MIN/MAX operate on row position `col` (INT64 or DOUBLE).
class AggregateOperator final : public RowOperator {
 public:
  AggregateOperator(RowOperatorPtr child, AggregateKind kind, size_t col = 0);
  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  RowOperatorPtr child_;
  AggregateKind kind_;
  size_t col_;
  bool done_ = false;
  Value result_;
  RowBatch in_;
};

/// Decorator: attributes an operator's Open and per-batch pull time to a
/// kOperator span in the retrieval leaf's QueryProfile. The span registers
/// *after* the child's Open (the leaf's Open resets the profile), so
/// wrappers register leaf-to-root and the spans nest into executed-plan
/// shape. One timer pair covers a whole batch; actual_rows advances by the
/// batch's row count. With profiling off the profile yields null spans and
/// the wrapper degrades to a virtual-call passthrough.
class ProfilingOperator final : public RowOperator {
 public:
  ProfilingOperator(RowOperatorPtr child, std::string name,
                    QueryProfile* profile)
      : child_(std::move(child)),
        name_(std::move(name)),
        profile_(profile) {}

  Status Open() override;
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

  /// The wrapped operator (plan introspection, tests).
  RowOperator* inner() { return child_.get(); }

 private:
  RowOperatorPtr child_;
  std::string name_;
  QueryProfile* profile_;
  ProfileSpan* span_ = nullptr;
};

/// Test/bench helper: serves a fixed vector of rows, which must all have
/// the arity of the first (InvalidArgument otherwise).
class VectorSourceOperator final : public RowOperator {
 public:
  explicit VectorSourceOperator(std::vector<std::vector<Value>> rows)
      : rows_(std::move(rows)) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  using RowOperator::NextBatch;
  Result<bool> NextBatch(RowBatch* out,
                         size_t max_rows = kDefaultBatchRows) override;

 private:
  std::vector<std::vector<Value>> rows_;
  size_t pos_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_OPERATORS_H_
