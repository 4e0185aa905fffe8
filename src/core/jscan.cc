#include "core/jscan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dynopt {

namespace {

// Entries to scan before trusting the keep-rate extrapolation.
constexpr uint64_t kMinScanBeforeProjection = 32;

}  // namespace

std::string_view Jscan::OutcomeKindName(IndexOutcomeKind kind) {
  switch (kind) {
    case IndexOutcomeKind::kCompleted:
      return "completed";
    case IndexOutcomeKind::kDiscarded:
      return "discarded";
    case IndexOutcomeKind::kSkipped:
      return "skipped";
  }
  return "?";
}

Jscan::Jscan(Database* db, const RetrievalSpec& spec, const ParamMap& params,
             std::vector<const IndexClassification*> candidates,
             Options options)
    : db_(db),
      spec_(spec),
      params_(params),
      candidates_(std::move(candidates)),
      options_(options) {
  tscan_cost_ = EstimateTscanCost(spec_, db_->cost_weights());
  gbc_ = tscan_cost_;
  if (MetricsRegistry* r = db_->pool()->metrics()) {
    m_strategy_fallbacks_ = r->counter("governance.strategy_fallbacks");
    m_entries_scanned_ = r->counter("jscan.entries_scanned");
    m_rids_kept_ = r->counter("jscan.rids_kept");
    m_scans_completed_ = r->counter("jscan.scans_completed");
    m_scans_discarded_ = r->counter("jscan.scans_discarded");
    m_scans_skipped_ = r->counter("jscan.scans_skipped");
    m_rid_list_size_ = r->histogram(
        "jscan.rid_list_size", {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536});
  }
  if (candidates_.empty()) {
    phase_ = Phase::kTscanRecommended;
  }
}

void Jscan::EmitOutcome(const IndexOutcome& outcome) {
  Bump(m_entries_scanned_, outcome.entries_scanned);
  Bump(m_rids_kept_, outcome.kept);
  switch (outcome.kind) {
    case IndexOutcomeKind::kCompleted:
      Bump(m_scans_completed_);
      Observe(m_rid_list_size_, static_cast<double>(outcome.kept));
      break;
    case IndexOutcomeKind::kDiscarded:
      Bump(m_scans_discarded_);
      break;
    case IndexOutcomeKind::kSkipped:
      Bump(m_scans_skipped_);
      break;
  }
  if (trace_ != nullptr) {
    trace_->Emit(TraceEventKind::kJscanIndexOutcome, outcome.index_name,
                 std::string(OutcomeKindName(outcome.kind)),
                 static_cast<double>(outcome.entries_scanned),
                 static_cast<double>(outcome.kept));
  }
}

std::unique_ptr<Jscan::ActiveScan> Jscan::StartScan(
    const IndexClassification* cand) {
  auto scan = std::make_unique<ActiveScan>(cand, db_->page_count());
  scan->list = std::make_unique<HybridRidList>(db_->pool(), options_.rid_list);
  scan->list->set_context(ctx_);
  if (cand->covered_residual != nullptr) {
    std::set<uint32_t> cols;
    cand->covered_residual->CollectColumns(&cols);
    scan->keys.Configure(spec_.table->schema().num_columns(), cols,
                         options_.batch_entries);
  }
  borrow_generation_++;
  return scan;
}

bool Jscan::ShouldSkip(const IndexClassification& cand) const {
  double est_entries = cand.estimate.estimated_rids;
  double fanout = std::max(cand.index->tree()->AvgFanout(), 1.0);
  double scan_cost =
      EstimateIndexScanCost(est_entries, fanout, db_->cost_weights());
  if (options_.dynamic_thresholds) {
    // Sound rule: even a scan whose list fetched for free cannot pay off
    // once the scan alone costs the guaranteed best. Anything cheaper is
    // worth *starting* — the run-time path projection aborts it early if
    // it turns out unproductive.
    return scan_cost >= gbc_;
  }
  // [MoHa90]: a fixed compile-time threshold against the Tscan estimate is
  // the only gate an index ever faces.
  return scan_cost > options_.scan_cost_limit_fraction * tscan_cost_;
}

Status Jscan::Advance() {
  // Promote the secondary when the primary slot is empty.
  if (primary_ == nullptr && secondary_ != nullptr) {
    primary_ = std::move(secondary_);
    borrow_generation_++;  // the borrowable list changed
  }
  while (primary_ == nullptr && next_candidate_ < candidates_.size()) {
    const IndexClassification* cand = candidates_[next_candidate_++];
    if (ShouldSkip(*cand)) {
      outcomes_.push_back(
          IndexOutcome{cand->index->name(), IndexOutcomeKind::kSkipped, 0, 0});
      EmitOutcome(outcomes_.back());
      continue;
    }
    primary_ = StartScan(cand);
  }
  if (primary_ == nullptr) {
    // Nothing left to scan.
    phase_ = completed_list_ != nullptr ? Phase::kComplete
                                        : Phase::kTscanRecommended;
    return Status::OK();
  }
  // Race the next candidate beside the primary inside the memory buffer.
  if (options_.dynamic_thresholds &&
      secondary_ == nullptr && next_candidate_ < candidates_.size()) {
    const IndexClassification* cand = candidates_[next_candidate_];
    if (!ShouldSkip(*cand)) {
      next_candidate_++;
      secondary_ = StartScan(cand);
    }
  }
  return Status::OK();
}

Result<bool> Jscan::StepScan(ActiveScan* scan) {
  MeterScope scope(db_->pool(), &scan->accrued);
  const PredicateRef& screen = scan->cand->covered_residual;
  scan_entries_.Clear(/*collect_keys=*/screen != nullptr);
  DYNOPT_ASSIGN_OR_RETURN(
      bool more,
      scan->cursor.NextBatch(options_.batch_entries, &scan_entries_));
  (void)more;
  size_t n = scan_entries_.size();
  if (n == 0) {
    scan->exhausted = true;
    return false;
  }
  scan->entries_scanned += n;
  std::span<const Rid> rids = scan_entries_.rids();
  // Intersection filter: the previously completed list drops entries
  // before they ever reach this scan's RID list.
  if (completed_list_ != nullptr) {
    completed_list_->Probe(rids, &scan_keep_);
  } else {
    scan_keep_.resize(n);
    std::iota(scan_keep_.begin(), scan_keep_.end(), 0u);
  }
  if (screen != nullptr && !scan_keep_.empty()) {
    // Vectorized index screening: reject from the keys alone, before the
    // entries reach a RID list (and long before any record fetch).
    scan->keys.Clear();
    for (uint32_t i : scan_keep_) {
      DYNOPT_RETURN_IF_ERROR(scan->cand->index->DecodeKeyColumnsInto(
          scan_entries_.key(i), scan->keys.dests(), &decode_scratch_));
      scan->keys.AddRow(rids[i]);
    }
    db_->pool()->meter_ptr()->record_evals += scan_keep_.size();
    BatchView view(scan->keys.cols(), scan->keys.num_columns());
    DYNOPT_RETURN_IF_ERROR(FilterSelection(*screen, view, params_,
                                           &scan_scratch_,
                                           &scan->keys.sel()));
    // keys row r corresponds to scan_keep_[r]; compact in place.
    size_t kept = 0;
    for (uint32_t r : scan->keys.sel()) scan_keep_[kept++] = scan_keep_[r];
    scan_keep_.resize(kept);
  }
  Status appended = scan->list->Append(rids, scan_keep_);
  scan->kept = scan->list->size();  // a failed spill keeps what it took
  DYNOPT_RETURN_IF_ERROR(appended);
  for (uint32_t i : scan_keep_) scan->kept_pages.Insert(rids[i].page);
  return true;
}

double Jscan::ProjectedFinalCost(const ActiveScan& scan) const {
  // Extrapolate the keep rate over the estimated range size: "the cost of
  // the final RID list retrieval can be reliably estimated from the
  // current RID list". Page touches come from the *measured* page spread
  // of the kept RIDs so far (clustered lists project cheap, §3b), capped
  // by the random-placement Cardenas bound.
  double est_total = std::max(scan.cand->estimate.estimated_rids,
                              static_cast<double>(scan.entries_scanned));
  double scale = scan.entries_scanned == 0
                     ? 1.0
                     : est_total / static_cast<double>(scan.entries_scanned);
  double projected_kept = scan.entries_scanned == 0
                              ? est_total
                              : static_cast<double>(scan.kept) * scale;
  double total_pages =
      static_cast<double>(spec_.table->heap()->pages().size());
  double linear_pages = static_cast<double>(scan.kept_pages.count()) * scale;
  double cardenas =
      total_pages > 0
          ? total_pages *
                (1.0 - std::pow(1.0 - 1.0 / total_pages, projected_kept))
          : 0.0;
  double pages = std::min({linear_pages, cardenas, total_pages});
  return FetchCostFromPages(pages, projected_kept, db_->cost_weights());
}

bool Jscan::ShouldDiscard(const ActiveScan& scan) const {
  if (!options_.dynamic_thresholds) return false;  // [MoHa90] never aborts
  if (scan.entries_scanned < kMinScanBeforeProjection) {
    return false;
  }
  // Two-stage competition over the whole remaining path: spent scan cost +
  // projected rest-of-scan + projected final retrieval, against the
  // guaranteed best. This unifies the paper's projected-cost criterion
  // with its index-scan cost limit: a scan is abandoned exactly when its
  // completed future cannot undercut what is already guaranteed.
  double spent = scan.accrued.Cost(db_->cost_weights());
  double est_total = std::max(scan.cand->estimate.estimated_rids,
                              static_cast<double>(scan.entries_scanned));
  // Remaining-scan cost from the analytic model, not from extrapolating
  // the measured per-entry cost: the first few entries carry the descent
  // and first-leaf faults and would project absurdly high.
  double fanout = std::max(scan.cand->index->tree()->AvgFanout(), 1.0);
  double remaining_scan = EstimateIndexScanCost(
      est_total - static_cast<double>(scan.entries_scanned), fanout,
      db_->cost_weights());
  double projected_path = spent + remaining_scan + ProjectedFinalCost(scan);
  if (projected_path >= options_.switch_threshold * gbc_) return true;
  // Safety cap for wildly wrong range estimates: a scan that alone has
  // consumed the guaranteed best can never pay off.
  return spent > options_.scan_cost_limit_fraction * gbc_;
}

void Jscan::RecordOutcome(const ActiveScan& scan, IndexOutcomeKind kind) {
  outcomes_.push_back(IndexOutcome{scan.cand->index->name(), kind,
                                   scan.entries_scanned, scan.kept});
  accrued_ += scan.accrued;
}

Status Jscan::RefilterPartial(ActiveScan* scan) {
  // The loser of an adjacent race keeps its partial list by refiltering the
  // in-memory RIDs through the newly completed filter — cheap, and the
  // reason the race "does not continue beyond the memory buffer".
  MeterScope scope(db_->pool(), &scan->accrued);
  auto fresh = std::make_unique<HybridRidList>(db_->pool(), options_.rid_list);
  fresh->set_context(ctx_);
  std::span<const Rid> partial = scan->list->InMemory();
  completed_list_->Probe(partial, &scan_keep_);
  DYNOPT_RETURN_IF_ERROR(fresh->Append(partial, scan_keep_));
  scan->list = std::move(fresh);
  scan->kept = scan->list->size();
  borrow_generation_++;
  return Status::OK();
}

Status Jscan::CompleteScan(std::unique_ptr<ActiveScan> scan) {
  DYNOPT_RETURN_IF_ERROR(scan->list->Seal());
  RecordOutcome(*scan, IndexOutcomeKind::kCompleted);
  completed_names_.push_back(scan->cand->index->name());

  // The complete list's page spread is now *known*, not estimated.
  double final_cost = FetchCostFromPages(
      static_cast<double>(scan->kept_pages.count()),
      static_cast<double>(scan->kept), db_->cost_weights());
  bool improves = final_cost < gbc_ || completed_list_ != nullptr;
  if (options_.dynamic_thresholds) {
    gbc_ = std::min(gbc_, final_cost);
  }
  if (improves) {
    // Later lists are intersections of earlier ones, so they always
    // replace; a *first* list only survives if it beats Tscan.
    completed_list_ = std::move(scan->list);
    borrow_generation_++;
  } else {
    // The completed list cannot beat a table scan; drop it so the verdict
    // can be Tscan if nothing better comes.
    outcomes_.back().kind = IndexOutcomeKind::kDiscarded;
    completed_names_.pop_back();
  }
  EmitOutcome(outcomes_.back());
  return Status::OK();
}

Status Jscan::PollGovernance() {
  if (ctx_ == nullptr) return Status::OK();
  // Cumulative reads: retired scans live in accrued_, in-flight ones in
  // their private meters — the sum is monotone across scan hand-offs.
  uint64_t reads = accrued_.logical_reads;
  if (primary_ != nullptr) reads += primary_->accrued.logical_reads;
  if (secondary_ != nullptr) reads += secondary_->accrued.logical_reads;
  if (reads > charged_reads_) {
    ctx_->ChargePagesRead(reads - charged_reads_);
    charged_reads_ = reads;
  }
  return ctx_->Check();
}

Status Jscan::DisqualifyScan(bool stepping_secondary, const Status& cause) {
  ActiveScan* scan = stepping_secondary ? secondary_.get() : primary_.get();
  if (trace_ != nullptr) {
    trace_->Emit(TraceEventKind::kStrategyDisqualified,
                 "Jscan(" + scan->cand->index->name() + ")",
                 "io_fault: " + cause.message());
  }
  Bump(m_strategy_fallbacks_);
  RecordOutcome(*scan, IndexOutcomeKind::kDiscarded);
  EmitOutcome(outcomes_.back());
  if (stepping_secondary) {
    // Unlike a competition requeue, the candidate does NOT re-enter the
    // queue: its index is unreadable and would only fault again.
    secondary_.reset();
  } else {
    primary_.reset();
    if (secondary_ != nullptr) {
      primary_ = std::move(secondary_);
      borrow_generation_++;
    } else {
      DYNOPT_RETURN_IF_ERROR(Advance());
    }
  }
  step_secondary_next_ = false;
  return Status::OK();
}

Result<bool> Jscan::Step() {
  if (phase_ != Phase::kScanning) return false;
  DYNOPT_RETURN_IF_ERROR(PollGovernance());
  if (primary_ == nullptr) {
    DYNOPT_RETURN_IF_ERROR(Advance());
    if (phase_ != Phase::kScanning) return false;
  }

  // Dissolve the race when either list has left main memory.
  if (secondary_ != nullptr &&
      (primary_->list->storage() == HybridRidList::Storage::kSpilled ||
       secondary_->list->storage() == HybridRidList::Storage::kSpilled)) {
    // The secondary's partial work is abandoned; its candidate re-enters
    // the queue to be scanned (with a better filter) later.
    accrued_ += secondary_->accrued;
    next_candidate_--;  // un-consume the secondary's candidate
    secondary_.reset();
    step_secondary_next_ = false;
  }

  // Pick which scan advances this step (alternation = equal speeds).
  ActiveScan* scan = primary_.get();
  bool stepping_secondary = false;
  if (secondary_ != nullptr && step_secondary_next_) {
    scan = secondary_.get();
    stepping_secondary = true;
  }
  step_secondary_next_ = !step_secondary_next_;

  auto stepped = StepScan(scan);
  if (!stepped.ok()) {
    const Status& st = stepped.status();
    if (!tolerate_io_faults_ || !IsIoFault(st)) return st;
    // The scan's index (or its spill) is unreadable: disqualify this
    // strategy and let the competition continue with the survivors.
    DYNOPT_RETURN_IF_ERROR(DisqualifyScan(stepping_secondary, st));
    return phase_ == Phase::kScanning;
  }
  bool progressed = *stepped;

  if (!progressed) {
    // This scan exhausted its range: it completes and delivers the filter.
    std::unique_ptr<ActiveScan> winner =
        stepping_secondary ? std::move(secondary_) : std::move(primary_);
    std::unique_ptr<ActiveScan> loser =
        stepping_secondary ? std::move(primary_) : std::move(secondary_);
    if (stepping_secondary) {
      reordered_ = true;  // the "later" index finished first: order flipped
    }
    DYNOPT_RETURN_IF_ERROR(CompleteScan(std::move(winner)));
    if (loser != nullptr && completed_list_ != nullptr) {
      DYNOPT_RETURN_IF_ERROR(RefilterPartial(loser.get()));
      primary_ = std::move(loser);
    } else if (loser != nullptr) {
      // No filter materialized (first list judged useless): the loser
      // continues unchanged.
      primary_ = std::move(loser);
    }
    secondary_.reset();
    step_secondary_next_ = false;
    if (primary_ == nullptr) {
      DYNOPT_RETURN_IF_ERROR(Advance());
    }
    return phase_ == Phase::kScanning;
  }

  if (ShouldDiscard(*scan)) {
    if (stepping_secondary) {
      // The racing secondary is provisional: it is evaluated in a position
      // it will not ultimately occupy (the primary's filter does not exist
      // yet), so competition dissolves the race and requeues the candidate
      // to be scanned later in its proper, filtered position.
      accrued_ += secondary_->accrued;
      next_candidate_--;  // un-consume the secondary's candidate
      secondary_.reset();
    } else {
      RecordOutcome(*primary_, IndexOutcomeKind::kDiscarded);
      EmitOutcome(outcomes_.back());
      primary_.reset();
      if (secondary_ != nullptr) {
        primary_ = std::move(secondary_);
        borrow_generation_++;  // the borrowable list changed
      } else {
        DYNOPT_RETURN_IF_ERROR(Advance());
      }
    }
    step_secondary_next_ = false;
    return phase_ == Phase::kScanning;
  }
  return true;
}

Status Jscan::RunToCompletion() {
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, Step());
    if (!more) return Status::OK();
  }
}

std::optional<Rid> Jscan::BorrowNextRid() {
  HybridRidList* source = nullptr;
  if (primary_ != nullptr) {
    source = primary_->list.get();
  } else if (completed_list_ != nullptr) {
    source = completed_list_.get();
  }
  if (source == nullptr) return std::nullopt;
  if (borrow_source_generation_ != borrow_generation_) {
    borrow_source_generation_ = borrow_generation_;
    borrow_pos_ = 0;
  }
  std::span<const Rid> borrowable = source->InMemory();
  if (borrow_pos_ >= borrowable.size()) return std::nullopt;
  return borrowable[borrow_pos_++];
}

}  // namespace dynopt
