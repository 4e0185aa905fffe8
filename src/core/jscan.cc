#include "core/jscan.h"

#include <algorithm>
#include <cmath>

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
    : ScanStepper("Jscan", db->pool(), spec, params),
      db_(db),
      candidates_(std::move(candidates)),
      options_(options) {
  tscan_cost_ = EstimateTscanCost(spec_, db_->cost_weights());
  gbc_ = tscan_cost_;
  if (MetricsRegistry* r = pool_->metrics()) {
    m_strategy_fallbacks_ = r->counter("governance.strategy_fallbacks");
    m_entries_scanned_ = r->counter("jscan.entries_scanned");
    m_rids_kept_ = r->counter("jscan.rids_kept");
    m_scans_completed_ = r->counter("jscan.scans_completed");
    m_scans_discarded_ = r->counter("jscan.scans_discarded");
    m_scans_skipped_ = r->counter("jscan.scans_skipped");
    m_rid_list_size_ = r->histogram(
        "jscan.rid_list_size", {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536});
  }
  exhausted_ = candidates_.empty();
}

void Jscan::EmitOutcome(const std::string& index_name, IndexOutcomeKind kind,
                        uint64_t entries_scanned, uint64_t kept) {
  Bump(m_entries_scanned_, entries_scanned);
  Bump(m_rids_kept_, kept);
  switch (kind) {
    case IndexOutcomeKind::kCompleted:
      Bump(m_scans_completed_);
      Observe(m_rid_list_size_, static_cast<double>(kept));
      break;
    case IndexOutcomeKind::kDiscarded:
      Bump(m_scans_discarded_);
      break;
    case IndexOutcomeKind::kSkipped:
      Bump(m_scans_skipped_);
      break;
  }
  if (trace_ != nullptr) {
    trace_->Emit(TraceEventKind::kJscanIndexOutcome, index_name,
                 std::string(OutcomeKindName(kind)),
                 static_cast<double>(entries_scanned),
                 static_cast<double>(kept));
  }
}

std::unique_ptr<Jscan::ActiveScan> Jscan::StartScan(
    const IndexClassification* cand) {
  auto scan = std::make_unique<ActiveScan>(cand, db_->page_count());
  scan->list = std::make_unique<HybridRidList>(pool_, options_.rid_list);
  scan->list->set_context(ctx_);
  if (cand->covered_residual != nullptr) {
    std::set<uint32_t> cols;
    cand->covered_residual->CollectColumns(&cols);
    scan->keys.Configure(spec_.table->schema().num_columns(), cols);
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
      EmitOutcome(cand->index->name(), IndexOutcomeKind::kSkipped, 0, 0);
      continue;
    }
    primary_ = StartScan(cand);
  }
  if (primary_ == nullptr) {
    // Nothing left to scan: phase() now reads kComplete when a list
    // completed, kTscanRecommended otherwise.
    exhausted_ = true;
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

void Jscan::DetachContext() {
  set_context(nullptr);
  for (ActiveScan* scan : {primary_.get(), secondary_.get()}) {
    if (scan != nullptr) scan->list->set_context(nullptr);
  }
  if (completed_list_ != nullptr) completed_list_->set_context(nullptr);
}

Result<bool> Jscan::StepScan(ActiveScan* scan, size_t max_units) {
  ScopedCostMeter scope(&scan->accrued, pool_->shared_meter());
  // The previously completed list is the intersection filter, and the
  // key screen rejects entries before they reach this scan's RID list
  // (and long before any record fetch).
  DYNOPT_ASSIGN_OR_RETURN(
      size_t n, Harvest(&scan->cursor, max_units, completed_list_.get(),
                        *scan->cand->index, scan->cand->covered_residual.get(),
                        &scan->keys));
  if (n == 0) return false;
  scan->entries_scanned += n;
  std::span<const Rid> rids = entries_.rids();
  DYNOPT_RETURN_IF_ERROR(scan->list->Append(rids, survivors_));
  scan->kept = scan->list->size();
  for (uint32_t i : survivors_) scan->kept_pages.Insert(rids[i].page);
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

Status Jscan::RefilterPartial(ActiveScan* scan) {
  // The loser of an adjacent race keeps its partial list by refiltering the
  // in-memory RIDs through the newly completed filter — cheap, and the
  // reason the race "does not continue beyond the memory buffer".
  ScopedCostMeter scope(&scan->accrued, pool_->shared_meter());
  auto fresh = std::make_unique<HybridRidList>(pool_, options_.rid_list);
  fresh->set_context(ctx_);
  std::span<const Rid> partial = scan->list->InMemory();
  completed_list_->Probe(partial, &survivors_);
  DYNOPT_RETURN_IF_ERROR(fresh->Append(partial, survivors_));
  scan->list = std::move(fresh);
  scan->kept = scan->list->size();
  borrow_generation_++;
  return Status::OK();
}

Status Jscan::CompleteScan(std::unique_ptr<ActiveScan> scan) {
  DYNOPT_RETURN_IF_ERROR(scan->list->Seal());

  // The complete list's page spread is now *known*, not estimated.
  double final_cost = FetchCostFromPages(
      static_cast<double>(scan->kept_pages.count()),
      static_cast<double>(scan->kept), db_->cost_weights());
  bool improves = final_cost < gbc_ || completed_list_ != nullptr;
  if (options_.dynamic_thresholds) {
    gbc_ = std::min(gbc_, final_cost);
  }
  if (!improves) {
    // The completed list cannot beat a table scan; drop it so the verdict
    // can be Tscan if nothing better comes.
    EmitOutcome(*scan, IndexOutcomeKind::kDiscarded);
    return Status::OK();
  }
  // Later lists are intersections of earlier ones, so they always replace;
  // a *first* list only survives if it beats Tscan.
  EmitOutcome(*scan, IndexOutcomeKind::kCompleted);
  completed_list_ = std::move(scan->list);
  completed_names_.push_back(scan->cand->index->name());
  borrow_generation_++;
  return Status::OK();
}

Status Jscan::DisqualifyScan(bool stepping_secondary, const Status& cause) {
  ActiveScan* scan = stepping_secondary ? secondary_.get() : primary_.get();
  if (trace_ != nullptr) {
    trace_->Emit(TraceEventKind::kStrategyDisqualified,
                 "Jscan(" + scan->cand->index->name() + ")",
                 "io_fault: " + cause.message());
  }
  Bump(m_strategy_fallbacks_);
  EmitOutcome(*scan, IndexOutcomeKind::kDiscarded);
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

Result<bool> Jscan::StepOnce(size_t max_units) {
  if (primary_ == nullptr) {
    DYNOPT_RETURN_IF_ERROR(Advance());
    if (exhausted_) return false;
  }

  // Dissolve the race when either list has left main memory.
  if (secondary_ != nullptr &&
      (primary_->list->storage() == HybridRidList::Storage::kSpilled ||
       secondary_->list->storage() == HybridRidList::Storage::kSpilled)) {
    // The secondary's partial work is abandoned; its candidate re-enters
    // the queue to be scanned (with a better filter) later.
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

  auto stepped = StepScan(scan, max_units);
  if (!stepped.ok()) {
    const Status& st = stepped.status();
    if (!tolerate_io_faults_ || !IsIoFault(st)) return st;
    // The scan's index is unreadable: disqualify this strategy and let the
    // competition continue with the survivors.
    DYNOPT_RETURN_IF_ERROR(DisqualifyScan(stepping_secondary, st));
    return !exhausted_;
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
    return !exhausted_;
  }

  if (ShouldDiscard(*scan)) {
    if (stepping_secondary) {
      // The racing secondary is provisional: it is evaluated in a position
      // it will not ultimately occupy (the primary's filter does not exist
      // yet), so competition dissolves the race and requeues the candidate
      // to be scanned later in its proper, filtered position.
      next_candidate_--;  // un-consume the secondary's candidate
      secondary_.reset();
    } else {
      EmitOutcome(*primary_, IndexOutcomeKind::kDiscarded);
      primary_.reset();
      if (secondary_ != nullptr) {
        primary_ = std::move(secondary_);
        borrow_generation_++;  // the borrowable list changed
      } else {
        DYNOPT_RETURN_IF_ERROR(Advance());
      }
    }
    step_secondary_next_ = false;
    return !exhausted_;
  }
  return true;
}

Status Jscan::RunToCompletion() {
  while (!exhausted_) DYNOPT_RETURN_IF_ERROR(Step().status());
  return Status::OK();
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
