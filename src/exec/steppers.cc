#include "exec/steppers.h"

#include <algorithm>
#include <numeric>

namespace dynopt {

ExecCounters::ExecCounters(BufferPool* pool) {
  if (pool == nullptr || pool->metrics() == nullptr) return;
  MetricsRegistry* m = pool->metrics();
  rows_screened = m->counter("exec.rows_screened");
  records_fetched = m->counter("exec.records_fetched");
  rows_delivered = m->counter("exec.rows_delivered");
  batches = m->counter("exec.batches");
  reallocs = m->counter("exec.realloc_count");
  rows_per_batch =
      m->histogram("exec.rows_per_batch", {1, 4, 16, 64, 256, 1024, 4096});
  selection_density =
      m->histogram("exec.selection_density", {1, 5, 10, 25, 50, 75, 90, 99});
}

Result<bool> ScanStepper::Step(size_t max_units) {
  if (exhausted_) return false;
  if (ctx_ != nullptr) DYNOPT_RETURN_IF_ERROR(ctx_->Check());
  ScopedCostMeter scope(&accrued_, pool_->shared_meter());
  Result<bool> stepped = StepOnce(max_units);
  if (ctx_ != nullptr) ctx_->ChargePagesRead(scope.gained().logical_reads);
  return stepped;
}

Status ScanStepper::Screen(const Predicate& pred, RowBatch* batch) {
  pool_->meter_ptr()->record_evals += batch->num_rows();
  Bump(exec_.rows_screened, batch->num_rows());
  BatchView view(batch->cols(), batch->num_columns());
  return FilterSelection(pred, view, params_, &scratch_, &batch->sel());
}

Result<size_t> ScanStepper::Harvest(MultiRangeCursor* cursor,
                                    size_t max_units,
                                    const HybridRidList* filter,
                                    const SecondaryIndex& index,
                                    const Predicate* screen, RowBatch* keys) {
  entries_.Clear(/*collect_keys=*/screen != nullptr);
  DYNOPT_ASSIGN_OR_RETURN(bool more, cursor->NextBatch(max_units, &entries_));
  (void)more;
  size_t n = entries_.size();
  if (n == 0) return n;
  // The sealed filter (the Sorted tactic's Jscan cooperation, or the
  // Jscan's previously completed list) rejects RIDs before any later work.
  if (filter != nullptr) {
    filter->Probe(entries_.rids(), &survivors_);
  } else {
    survivors_.resize(n);
    std::iota(survivors_.begin(), survivors_.end(), 0u);
  }
  // Index screening: evaluate the covered conjuncts over the decoded key
  // columns, so failing entries never reach a fetch or a RID list.
  if (screen != nullptr && !survivors_.empty()) {
    keys->Clear();
    for (uint32_t i : survivors_) {
      DYNOPT_RETURN_IF_ERROR(index.DecodeKeyColumnsInto(
          entries_.key(i), keys->dests(), &decode_scratch_));
      keys->AddRow(entries_.rid(i));
    }
    DYNOPT_RETURN_IF_ERROR(Screen(*screen, keys));
    // keys row r corresponds to survivors_[r]; compact in place.
    size_t kept = 0;
    for (uint32_t r : keys->sel()) survivors_[kept++] = survivors_[r];
    survivors_.resize(kept);
  }
  return n;
}

// ------------------------------------------------------------------ Tscan

TscanStepper::TscanStepper(BufferPool* pool, const RetrievalSpec& spec,
                           const ParamMap& params)
    : ScanStepper("Tscan", pool, spec, params),
      cursor_(spec.table->heap()->NewCursor()) {
  batch_.Configure(spec.table->schema().num_columns(), spec.NeededColumns());
}

Result<bool> TscanStepper::StepOnce(size_t max_units) {
  batch_.Clear();
  size_t cap_reserved = batch_.allocated_rows();
  const Schema& schema = spec_.table->schema();
  // Harvest: deserialize needed columns straight off the pinned pages.
  while (batch_.num_rows() < max_units) {
    std::string_view bytes;
    Rid rid;
    DYNOPT_ASSIGN_OR_RETURN(bool more, cursor_.NextView(&bytes, &rid));
    if (!more) break;
    records_scanned_++;
    DYNOPT_RETURN_IF_ERROR(
        DeserializeRecordColumns(schema, bytes, batch_.dests()));
    batch_.AddRow(rid);
  }
  if (batch_.allocated_rows() != cap_reserved) Bump(exec_.reallocs);
  size_t n = batch_.num_rows();
  if (n == 0) {
    exhausted_ = true;
    return false;
  }
  // Filter: one vectorized restriction pass over the whole batch.
  DYNOPT_RETURN_IF_ERROR(Screen(*spec_.restriction, &batch_));
  exec_.NoteBatch(n, batch_.sel().size());
  return true;
}

// ------------------------------------------------------------------ Fscan

FscanStepper::FscanStepper(BufferPool* pool, const RetrievalSpec& spec,
                           const ParamMap& params, SecondaryIndex* index,
                           RangeSet ranges)
    : ScanStepper("Fscan(" + index->name() + ")", pool, spec, params),
      index_(index),
      ranges_(std::move(ranges)),
      cursor_(index->tree(), &ranges_) {
  batch_.Configure(spec.table->schema().num_columns(), spec.NeededColumns());
}

void FscanStepper::SetScreen(PredicateRef screen) {
  screen_ = std::move(screen);
  if (screen_ != nullptr) {
    // The screen only reads covered columns by construction; materialize
    // exactly those from the decoded keys.
    std::set<uint32_t> cols;
    screen_->CollectColumns(&cols);
    keys_.Configure(spec_.table->schema().num_columns(), cols);
  }
}

Result<bool> FscanStepper::StepOnce(size_t max_units) {
  // Stages 1-2: the pre-fetch RID filter and the index screen reject
  // entries before their expensive fetch.
  DYNOPT_ASSIGN_OR_RETURN(size_t n, Harvest(&cursor_, max_units, filter_,
                                            *index_, screen_.get(), &keys_));
  if (n == 0) {
    exhausted_ = true;
    return false;
  }
  entries_scanned_ += n;

  // Stage 3: page-clustered fetch — sort the surviving RIDs by (page,
  // slot) so each heap page is pinned exactly once per batch.
  fetch_order_.assign(survivors_.begin(), survivors_.end());
  std::sort(fetch_order_.begin(), fetch_order_.end(),
            [&](uint32_t a, uint32_t b) {
              return entries_.rid(a) < entries_.rid(b);
            });
  batch_.Clear();
  const Schema& schema = spec_.table->schema();
  {
    HeapFile::BatchReader reader = spec_.table->heap()->NewBatchReader();
    for (uint32_t i : fetch_order_) {
      DYNOPT_ASSIGN_OR_RETURN(std::string_view bytes,
                              reader.Read(entries_.rid(i)));
      DYNOPT_RETURN_IF_ERROR(
          DeserializeRecordColumns(schema, bytes, batch_.dests()));
      batch_.AddRow(entries_.rid(i));
    }
  }
  records_fetched_ += batch_.num_rows();
  Bump(exec_.records_fetched, batch_.num_rows());

  // Stage 4: vectorized restriction over the fetched records, then put
  // the selection back in the original key order (index order is part of
  // Fscan's contract): batch_ row r holds entry fetch_order_[r].
  if (batch_.num_rows() > 0) {
    DYNOPT_RETURN_IF_ERROR(Screen(*spec_.restriction, &batch_));
    std::sort(batch_.sel().begin(), batch_.sel().end(),
              [&](uint32_t a, uint32_t b) {
                return fetch_order_[a] < fetch_order_[b];
              });
  }
  exec_.NoteBatch(n, batch_.sel().size());
  return true;
}

// ------------------------------------------------------------------ Fetch

FetchStepper::FetchStepper(BufferPool* pool, const RetrievalSpec& spec,
                           const ParamMap& params,
                           const std::unordered_set<Rid>* skip)
    : ScanStepper("Fetch", pool, spec, params), skip_(skip) {
  // No reserve: the batch grows to what the steps fetch and keeps it, so a
  // point lookup's final stage never allocates a full batch.
  batch_.Configure(spec.table->schema().num_columns(), spec.NeededColumns(),
                   0);
}

void FetchStepper::Restart(std::vector<Rid> rids) {
  rids_ = std::move(rids);
  pos_ = 0;
  exhausted_ = false;
  accrued_ = CostMeter();
}

Result<bool> FetchStepper::StepOnce(size_t max_units) {
  if (pos_ == rids_.size()) {
    exhausted_ = true;
    return false;
  }
  batch_.Clear();
  const Schema& schema = spec_.table->schema();
  // One reader for the step: page-sorted RIDs share each page's pin.
  HeapFile::BatchReader reader = spec_.table->heap()->NewBatchReader();
  while (pos_ < rids_.size() && batch_.num_rows() < max_units) {
    Rid rid = rids_[pos_++];
    if (skip_ != nullptr && skip_->count(rid) > 0) continue;
    auto bytes = reader.Read(rid);
    if (!bytes.ok()) {
      if (bytes.status().IsNotFound()) continue;  // deleted row
      return bytes.status();
    }
    DYNOPT_RETURN_IF_ERROR(
        DeserializeRecordColumns(schema, *bytes, batch_.dests()));
    batch_.AddRow(rid);
  }
  size_t n = batch_.num_rows();
  if (n > 0) {
    Bump(exec_.records_fetched, n);
    DYNOPT_RETURN_IF_ERROR(Screen(*spec_.restriction, &batch_));
    exec_.NoteBatch(n, batch_.sel().size());
  }
  if (pos_ == rids_.size()) {  // a fed queue restarts empty
    rids_.clear();
    pos_ = 0;
  }
  return true;
}

// ------------------------------------------------------------------ Sscan

SscanStepper::SscanStepper(BufferPool* pool, const RetrievalSpec& spec,
                           const ParamMap& params, SecondaryIndex* index,
                           RangeSet ranges)
    : ScanStepper("Sscan(" + index->name() + ")", pool, spec, params),
      index_(index),
      ranges_(std::move(ranges)),
      cursor_(index->tree(), &ranges_) {
  // Materialize the needed columns the index covers; a needed-but-
  // uncovered column keeps a null slot so touching it surfaces the same
  // Internal error the sparse row path produced.
  std::set<uint32_t> active;
  for (uint32_t c : spec.NeededColumns()) {
    if (index->covered_columns().count(c) != 0) active.insert(c);
  }
  batch_.Configure(spec.table->schema().num_columns(), active);
}

Result<bool> SscanStepper::StepOnce(size_t max_units) {
  entries_.Clear();
  DYNOPT_ASSIGN_OR_RETURN(bool more, cursor_.NextBatch(max_units, &entries_));
  (void)more;
  size_t n = entries_.size();
  if (n == 0) {
    exhausted_ = true;
    return false;
  }
  entries_scanned_ += n;
  batch_.Clear();
  for (uint32_t i = 0; i < n; ++i) {
    DYNOPT_RETURN_IF_ERROR(index_->DecodeKeyColumnsInto(
        entries_.key(i), batch_.dests(), &decode_scratch_));
    batch_.AddRow(entries_.rid(i));
  }
  DYNOPT_RETURN_IF_ERROR(Screen(*spec_.restriction, &batch_));
  if (!batch_.sel().empty()) {
    // Rows leave with every projection column, so each must be covered.
    for (uint32_t c : spec_.projection) {
      if (batch_.cols()[c] == nullptr) {
        return Status::Internal("projection column missing from sparse row");
      }
    }
  }
  exec_.NoteBatch(n, batch_.sel().size());
  return true;
}

}  // namespace dynopt
