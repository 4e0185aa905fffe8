// Resumable scan step machines.
//
// The paper's foreground/background "simultaneous" runs (§4, §7) are
// realized as deterministic interleavings of resumable scans: each stepper
// advances one batch of work per Step() call (records / index entries)
// and meters its own cost, so the retrieval engine can race strategies at
// proportional speeds and compare their accrued/projected costs exactly.
//
// Tscan, Fscan, Sscan and the fetch-by-RID stepper live here; the Jscan —
// the paper's contribution — is the fifth stepper, in src/core/jscan.h,
// and harvests its index scans the way the Fscan does.

#ifndef DYNOPT_EXEC_STEPPERS_H_
#define DYNOPT_EXEC_STEPPERS_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/index.h"
#include "exec/retrieval_spec.h"
#include "exec/rid_set.h"
#include "exec/row_batch.h"
#include "governance/query_context.h"
#include "index/btree.h"
#include "index/multi_range_cursor.h"
#include "storage/heap_file.h"
#include "util/cost_meter.h"

namespace dynopt {

/// The executor's exec.* counters, bound from a pool's attached registry
/// (all null when the pool has none). Every stepper and the retrieval
/// engine charge the same counters.
struct ExecCounters {
  explicit ExecCounters(BufferPool* pool);

  /// Records one completed batch: `rows` input units processed, of which
  /// `selected` survived the restriction.
  void NoteBatch(size_t rows, size_t selected) const {
    if (rows == 0) return;
    Bump(batches);
    Observe(rows_per_batch, static_cast<double>(rows));
    Observe(selection_density,
            100.0 * static_cast<double>(selected) / static_cast<double>(rows));
  }

  Counter* rows_screened = nullptr;    // restriction/screen evaluations
  Counter* records_fetched = nullptr;  // heap records fetched by RID
  Counter* rows_delivered = nullptr;   // rows handed to the engine's caller
  Counter* batches = nullptr;          // batches processed
  Counter* reallocs = nullptr;         // audited hot-loop reallocations
  Histogram* rows_per_batch = nullptr;
  Histogram* selection_density = nullptr;  // % of batch rows surviving
};

class ScanStepper {
 public:
  virtual ~ScanStepper() = default;

  /// Performs one *batch* of work — up to `max_units` input units (records
  /// scanned / index entries read, NOT output rows). Returns false, without
  /// polling, once the strategy is exhausted (idempotent afterwards).
  /// Otherwise polls the context once, runs the strategy's own step with
  /// its accrued() meter installed (ScopedCostMeter) and, on every return
  /// path, charges the step's page reads to the context as it ends.
  /// `max_units` is the competition sampling quantum. A typed governance
  /// error (Cancelled/DeadlineExceeded/BudgetExceeded) propagates before
  /// the step runs. A cursor-backed stepper (Tscan, Fscan, Sscan, the
  /// Jscan's scans) keeps its current heap page or leaf pinned *between*
  /// steps until it is exhausted or destroyed, so an execution its caller
  /// stops pulling (a LIMIT, an EXISTS) holds one page until its next
  /// Open. After a true return, output() holds the step's rows.
  Result<bool> Step(size_t max_units = kDefaultBatchRows);

  /// The last step's rows: columns in schema order (the spec's needed
  /// columns materialized), sel() listing the delivered rows in delivery
  /// order. Valid until the next Step().
  const RowBatch& output() const { return batch_; }

  bool exhausted() const { return exhausted_; }
  /// Cost this strategy has accrued so far (its private meter).
  const CostMeter& accrued() const { return accrued_; }
  double AccruedCost(const CostWeights& w) const { return accrued_.Cost(w); }
  const std::string& label() const { return label_; }

  /// Attaches governance: the context every Step() polls and charges.
  void set_context(QueryContext* ctx) { ctx_ = ctx; }

 protected:
  /// Binds the shared executor counters from `pool`'s attached registry
  /// (null pool or detached registry leaves them disabled).
  ScanStepper(std::string label, BufferPool* pool, const RetrievalSpec& spec,
              const ParamMap& params)
      : label_(std::move(label)),
        pool_(pool),
        spec_(spec),
        params_(params),
        exec_(pool) {}

  /// The strategy's own work for one Step(). Returns false, with
  /// exhausted_ set, when it finds nothing left to do.
  virtual Result<bool> StepOnce(size_t max_units) = 0;

  /// Evaluates `pred` over every row of `batch` in one vectorized pass,
  /// narrowing its selection, and charges the evaluations to the meter and
  /// to exec.rows_screened.
  Status Screen(const Predicate& pred, RowBatch* batch);

  /// One index-entry harvest, shared by the Fscan and the Jscan's scans:
  /// reads up to `max_units` entries off `cursor` into entries_ and leaves
  /// in survivors_ those that the sealed `filter` admits (null admits all)
  /// and whose key columns, decoded by `index` into `keys`, pass `screen`
  /// (null screens none). Returns the number of entries read; 0 means the
  /// cursor is exhausted.
  Result<size_t> Harvest(MultiRangeCursor* cursor, size_t max_units,
                         const HybridRidList* filter,
                         const SecondaryIndex& index, const Predicate* screen,
                         RowBatch* keys);

  std::string label_;
  BufferPool* pool_;
  const RetrievalSpec& spec_;
  const ParamMap& params_;
  BatchEvalScratch scratch_;
  CostMeter accrued_;
  bool exhausted_ = false;
  QueryContext* ctx_ = nullptr;
  ExecCounters exec_;
  RowBatch batch_;  // the step's rows (output())
  // Index-entry batch state, reused across steps (allocations recycled).
  RidBatch entries_;
  std::vector<uint32_t> survivors_;  // entry indexes surviving a Harvest
  std::string decode_scratch_;
};

/// Full table scan: the classical sequential retrieval, batched: each
/// Step deserializes up to `max_units` records column-wise straight off
/// the pinned heap pages, then filters them with one vectorized
/// restriction pass.
class TscanStepper final : public ScanStepper {
 public:
  TscanStepper(BufferPool* pool, const RetrievalSpec& spec,
               const ParamMap& params);

  uint64_t records_scanned() const { return records_scanned_; }

 private:
  Result<bool> StepOnce(size_t max_units) override;

  HeapFile::Cursor cursor_;
  uint64_t records_scanned_ = 0;
};

/// Fetch-needed index scan with immediate record fetches: the classical
/// indexed retrieval. Optionally filters RIDs through a Jscan-produced
/// filter *before* fetching (the Sorted tactic's cooperation, §7).
class FscanStepper final : public ScanStepper {
 public:
  FscanStepper(BufferPool* pool, const RetrievalSpec& spec,
               const ParamMap& params, SecondaryIndex* index,
               RangeSet ranges);

  /// Installs a pre-fetch RID filter (must outlive the stepper; must be
  /// sealed). RIDs rejected by it skip the (expensive) record fetch.
  void SetPreFetchFilter(const HybridRidList* filter) { filter_ = filter; }

  /// Installs an index-screening predicate: restriction conjuncts covered
  /// by the index's columns, evaluated from the key alone so failing
  /// entries never reach their record fetch.
  void SetScreen(PredicateRef screen);

  uint64_t entries_scanned() const { return entries_scanned_; }
  uint64_t records_fetched() const { return records_fetched_; }

 private:
  Result<bool> StepOnce(size_t max_units) override;

  SecondaryIndex* index_;
  RangeSet ranges_;
  MultiRangeCursor cursor_;
  const HybridRidList* filter_ = nullptr;
  PredicateRef screen_;
  uint64_t entries_scanned_ = 0;
  uint64_t records_fetched_ = 0;
  // Batch state, reused across Steps (allocations recycled). batch_ holds
  // the fetched records in page-clustered order.
  RowBatch keys_;  // decoded key columns of the screen's candidates
  std::vector<uint32_t> fetch_order_;  // survivors sorted by (page, slot)
};

/// Fetch by RID: fetches the records of the RIDs its caller queues, in
/// queue order, and screens them with the restriction in one batch pass.
/// A deleted row, or a RID in the skip set, is passed over without a fetch
/// and does not count against the step's quantum. The retrieval engine
/// runs two of them (§7): the final stage (Fin) over the Jscan's
/// page-sorted RID list, and the fast-first foreground, fed one borrowed
/// RID per quantum. Both live as long as the engine and restart for each
/// execution, so fetching by RID allocates nothing once the batch has
/// grown.
class FetchStepper final : public ScanStepper {
 public:
  /// `skip` (may be null) must outlive the stepper.
  FetchStepper(BufferPool* pool, const RetrievalSpec& spec,
               const ParamMap& params, const std::unordered_set<Rid>* skip);

  /// Starts over on the queue `rids`, with an empty meter.
  void Restart(std::vector<Rid> rids = {});
  /// Queues one more RID to fetch.
  void Queue(Rid rid) { rids_.push_back(rid); }

 private:
  /// Fetches up to `max_units` records. Returns false once it finds the
  /// queue empty.
  Result<bool> StepOnce(size_t max_units) override;

  const std::unordered_set<Rid>* skip_;
  std::vector<Rid> rids_;  // the queue; rids_[pos_] is fetched next
  size_t pos_ = 0;
};

/// Self-sufficient index scan: delivers results from index keys alone.
/// The planner must verify the index covers restriction + projection.
class SscanStepper final : public ScanStepper {
 public:
  SscanStepper(BufferPool* pool, const RetrievalSpec& spec,
               const ParamMap& params, SecondaryIndex* index,
               RangeSet ranges);

  uint64_t entries_scanned() const { return entries_scanned_; }

 private:
  Result<bool> StepOnce(size_t max_units) override;

  SecondaryIndex* index_;
  RangeSet ranges_;
  MultiRangeCursor cursor_;
  uint64_t entries_scanned_ = 0;
  // batch_ materializes the needed columns the index covers; an uncovered
  // projection column is an Internal error.
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_STEPPERS_H_
