// Jscan — joint scan of fetch-needed indexes (§6, Figure 6).
//
// Scans the preselected indexes in ascending-selectivity order. Each scan
// builds a RID list (hybrid storage, §6) that is the intersection of its
// own range with the previously completed list; the completed list doubles
// as the membership filter for the next scan. Unproductive scans are
// eliminated by a live two-stage competition:
//
//   * projected-cost criterion — during each index scan, the final
//     RID-list retrieval cost is continuously re-projected from the
//     current list's keep rate; the scan is terminated and discarded when
//     the projection "approaches (e.g. becomes 95% of) the guaranteed best
//     retrieval cost";
//   * scan-cost limit — a direct competition of the scan itself against
//     the final stage: an index scan whose own accrued cost exceeds a set
//     proportion of the guaranteed best is abandoned;
//   * the guaranteed best cost starts at the Tscan estimate and ratchets
//     down every time a list completes (fetch-by-list beats it).
//
// Simultaneous adjacent scanning: two neighbouring indexes race step for
// step inside the memory buffer; the first to finish delivers the filter,
// and the loser's in-memory partial list is refiltered (cheap) so its scan
// continues without restarting — the paper's dynamic partial reordering.
// The race dissolves if either list outgrows main memory.
//
// Setting `dynamic_thresholds = false` freezes the guaranteed best at the
// initial Tscan estimate and disables run-time termination — the
// statically-thresholded Jscan of Mohan et al. [MoHa90], kept as the
// baseline the benches compare against.

#ifndef DYNOPT_CORE_JSCAN_H_
#define DYNOPT_CORE_JSCAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/access_path.h"
#include "exec/retrieval_spec.h"
#include "exec/rid_set.h"
#include "exec/steppers.h"
#include "index/multi_range_cursor.h"
#include "obs/trace.h"

namespace dynopt {

/// The Jscan is a stepper like the foregrounds it races: each Step()
/// advances one scan by up to `max_units` index entries and settles what
/// that batch decided. It delivers no rows (output() stays empty); it is
/// exhausted once phase() leaves kScanning. Its RID lists charge their
/// spill and RID bytes to the context set_context() attached, so attach it
/// before the first Step().
class Jscan final : public ScanStepper {
 public:
  struct Options {
    /// Terminate a scan when its projected final cost reaches this
    /// fraction of the guaranteed best ("a bit before ... equalized").
    double switch_threshold = 0.95;
    /// Safety cap: abandon a scan whose own accrued cost alone exceeds
    /// this fraction of the guaranteed best (protects against wildly wrong
    /// range estimates in the path projection). In static [MoHa90] mode
    /// this is the compile-time inclusion threshold vs the Tscan estimate.
    double scan_cost_limit_fraction = 1.0;
    /// false = [MoHa90] static-threshold baseline (no run-time switching).
    bool dynamic_thresholds = true;
    HybridRidList::Options rid_list;
  };

  enum class Phase : uint8_t { kScanning, kComplete, kTscanRecommended };

  /// A per-index verdict. Each is recorded once, as a kJscanIndexOutcome
  /// event (set_trace) whose detail is OutcomeKindName(kind).
  enum class IndexOutcomeKind : uint8_t {
    kCompleted,  // delivered a RID list / filter
    kDiscarded,  // terminated mid-scan by competition
    kSkipped,    // never started (estimate alone disqualified it)
  };

  /// Stable slug for an outcome kind ("completed"/"discarded"/"skipped").
  static std::string_view OutcomeKindName(IndexOutcomeKind kind);

  /// `candidates` must outlive the Jscan; they come from the initial
  /// stage's jscan_order (ascending estimated RIDs). `params` (bound host
  /// variables) is used for index-screening evaluation. Step()'s
  /// `max_units` is the batch each scan harvests: alternation, spill
  /// dissolution and discard checks happen at batch boundaries.
  Jscan(Database* db, const RetrievalSpec& spec, const ParamMap& params,
        std::vector<const IndexClassification*> candidates, Options options);

  /// Runs Step() to completion (convenience for callers with no foreground
  /// to interleave).
  Status RunToCompletion();

  Phase phase() const {
    if (!exhausted()) return Phase::kScanning;
    return completed_list_ != nullptr ? Phase::kComplete
                                      : Phase::kTscanRecommended;
  }

  /// The final (sealed) RID list; non-null iff phase() == kComplete.
  HybridRidList* final_list() { return completed_list_.get(); }

  /// Detaches the context from the Jscan and every list it holds, so
  /// none refunds spill to it when it dies: the execution that attached
  /// the context is over, and the context may be gone.
  void DetachContext();

  /// Current "guaranteed best" remaining-retrieval cost estimate.
  double guaranteed_best_cost() const { return gbc_; }
  double tscan_cost_estimate() const { return tscan_cost_; }

  /// True when the adjacent race flipped the scan order at least once.
  bool reordered() const { return reordered_; }

  /// Names of indexes that completed, in completion order — fed back as
  /// the next execution's estimation preorder (§5).
  const std::vector<std::string>& completed_order() const {
    return completed_names_;
  }

  /// Emits a kJscanIndexOutcome event into `log` for every per-index
  /// verdict (after the verdict is final; a completed first list demoted
  /// for not beating Tscan reports as discarded): subject = index name,
  /// detail = OutcomeKindName, a = entries scanned, b = RIDs kept. The
  /// log is the Jscan's only record of its outcomes. Null disables.
  void set_trace(TraceLog* log) { trace_ = log; }

  /// When true, an I/O fault (EIO/corruption) inside an index scan
  /// disqualifies that scan through the competition bookkeeping — trace
  /// event kStrategyDisqualified, outcome kDiscarded, candidate *not*
  /// requeued — and the Jscan continues with the survivors, ending in
  /// kTscanRecommended when none remain. Off (fail the Jscan) by default.
  void set_tolerate_io_faults(bool v) { tolerate_io_faults_ = v; }

  /// Fast-first cooperation (§7): hands out the next not-yet-borrowed RID
  /// from the in-memory part of the list currently being built (or, once
  /// complete, the final list). nullopt when nothing new is available.
  std::optional<Rid> BorrowNextRid();

 private:
  struct ActiveScan {
    const IndexClassification* cand = nullptr;
    MultiRangeCursor cursor;
    uint64_t entries_scanned = 0;
    uint64_t kept = 0;
    std::unique_ptr<HybridRidList> list;
    /// This scan's own cost, which the discard test weighs; installed
    /// inside the Jscan's step, it folds into the Jscan's accrued().
    CostMeter accrued;
    /// Distinct heap pages among kept RIDs: the live clustering
    /// measurement the final-cost projection is built from (§3b).
    PageBitmap kept_pages;
    /// Decoded key columns of the current batch's screen candidates
    /// (configured at StartScan when a covered residual exists).
    RowBatch keys;

    ActiveScan(const IndexClassification* c, size_t page_count)
        : cand(c),
          cursor(c->index->tree(), &c->ranges),
          kept_pages(page_count) {}
  };

  Result<bool> StepOnce(size_t max_units) override;
  /// Starts scans for the next candidate(s); exhausts the Jscan when none
  /// are left.
  Status Advance();
  std::unique_ptr<ActiveScan> StartScan(const IndexClassification* cand);
  /// One index-entry batch of `scan`, through the previous filter and the
  /// key screen into its RID list.
  Result<bool> StepScan(ActiveScan* scan, size_t max_units);
  /// Competition checks; true = the scan must be discarded now.
  bool ShouldDiscard(const ActiveScan& scan) const;
  double ProjectedFinalCost(const ActiveScan& scan) const;
  /// Estimate-only disqualification before a scan starts.
  bool ShouldSkip(const IndexClassification& cand) const;
  /// Seals `scan`'s list and installs it as the completed list/filter.
  Status CompleteScan(std::unique_ptr<ActiveScan> scan);
  /// Publishes a finalized outcome to the trace log and registry counters.
  void EmitOutcome(const std::string& index_name, IndexOutcomeKind kind,
                   uint64_t entries_scanned, uint64_t kept);
  void EmitOutcome(const ActiveScan& scan, IndexOutcomeKind kind) {
    EmitOutcome(scan.cand->index->name(), kind, scan.entries_scanned,
                scan.kept);
  }
  /// Rebuilds `scan`'s in-memory partial list through the new filter.
  Status RefilterPartial(ActiveScan* scan);
  /// Retires the faulted scan (primary or secondary) as disqualified and
  /// moves the competition along.
  Status DisqualifyScan(bool stepping_secondary, const Status& cause);

  Database* db_;
  std::vector<const IndexClassification*> candidates_;
  Options options_;

  size_t next_candidate_ = 0;
  std::unique_ptr<ActiveScan> primary_;
  std::unique_ptr<ActiveScan> secondary_;
  bool step_secondary_next_ = false;

  std::unique_ptr<HybridRidList> completed_list_;  // last completed, sealed
  double tscan_cost_ = 0;
  double gbc_ = 0;

  std::vector<std::string> completed_names_;
  bool reordered_ = false;

  TraceLog* trace_ = nullptr;
  bool tolerate_io_faults_ = false;
  Counter* m_strategy_fallbacks_ = nullptr;
  Counter* m_entries_scanned_ = nullptr;
  Counter* m_rids_kept_ = nullptr;
  Counter* m_scans_completed_ = nullptr;
  Counter* m_scans_discarded_ = nullptr;
  Counter* m_scans_skipped_ = nullptr;
  Histogram* m_rid_list_size_ = nullptr;

  uint64_t borrow_generation_ = 0;
  uint64_t borrow_source_generation_ = ~uint64_t{0};
  size_t borrow_pos_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_CORE_JSCAN_H_
