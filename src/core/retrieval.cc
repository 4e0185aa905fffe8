#include "core/retrieval.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "competition/cost_dist.h"
#include "exec/query_class.h"

namespace dynopt {

std::string_view TacticName(Tactic t) {
  switch (t) {
    case Tactic::kUndecided:
      return "undecided";
    case Tactic::kShortcutEmpty:
      return "shortcut-empty";
    case Tactic::kShortcutTiny:
      return "shortcut-tiny";
    case Tactic::kStaticTscan:
      return "static-tscan";
    case Tactic::kStaticSscan:
      return "static-sscan";
    case Tactic::kBackgroundOnly:
      return "background-only";
    case Tactic::kFastFirst:
      return "fast-first";
    case Tactic::kSorted:
      return "sorted";
    case Tactic::kIndexOnly:
      return "index-only";
  }
  return "?";
}

std::string_view VerdictName(Verdict v) {
  static constexpr std::string_view kNames[] = {
      "brownout-pinned",     "no-background",
      "io-fault-fallback",   "foreground-finished",
      "fgr-buffer-overflow", "fgr-cost-limit",
      "jscan-complete",      "jscan-recommends-tscan",
      "filter-installed",    "no-filter",
      "jscan-won",           "sscan-retained"};
  size_t i = static_cast<size_t>(v);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::string_view VerdictWinner(Verdict v, Tactic t) {
  switch (v) {
    case Verdict::kBrownoutPinned:
      // The pin rewrote the tactic; Sorted pins to its ordered Fscan.
      if (t == Tactic::kStaticSscan) return "sscan";
      return t == Tactic::kStaticTscan ? "tscan" : "fscan";
    case Verdict::kNoBackground:
    case Verdict::kNoFilter:
      return "fscan";
    case Verdict::kIoFaultFallback:
      return "tscan";
    case Verdict::kForegroundFinished:
      return t == Tactic::kSorted ? "fscan" : "sscan";
    case Verdict::kJscanRecommendsTscan:
    case Verdict::kFgrBufferOverflow:
      // The Index-Only Sscan, the safer strategy, delivers on.
      if (t == Tactic::kIndexOnly) return "sscan";
      return v == Verdict::kFgrBufferOverflow ? "jscan" : "tscan";
    case Verdict::kFgrCostLimit:
    case Verdict::kJscanComplete:
    case Verdict::kJscanWon:
      return "jscan";
    case Verdict::kFilterInstalled:
      return "fscan+filter";
    case Verdict::kSscanRetained:
      return "sscan";
  }
  return "?";
}

double CompetitionSample::loser_cost() const {
  std::string_view w = winner();
  if (w == "fscan+filter") return 0;
  if (w == "tscan") return foreground_cost + background_cost;
  if (w == "jscan") return foreground_cost;
  return background_cost;
}

namespace {

std::string_view ModeName(uint8_t mode) {
  static constexpr std::string_view kNames[] = {"single", "background",
                                                "race", "final", "done"};
  return mode < 5 ? kNames[mode] : "?";
}

}  // namespace

DynamicRetrieval::DynamicRetrieval(Database* db, RetrievalSpec spec,
                                   RetrievalOptions options)
    : db_(db),
      spec_(std::move(spec)),
      options_(options),
      exec_(db->pool()),
      final_fetch_(db->pool(), spec_, params_, &delivered_),
      ff_fetch_(db->pool(), spec_, params_, &delivered_) {
  if (spec_.restriction == nullptr) spec_.restriction = Predicate::True();
  class_prefix_ = QueryClassPrefix(spec_);
  profile_store_ = db_->profiles();
  learning_ = db_->learning();
  events_.set_capacity(0);  // an execution emits a bounded number of events
  if (db_->metrics() != nullptr) {
    m_fallbacks_ = db_->metrics()->counter("governance.strategy_fallbacks");
    m_repairs_ = db_->metrics()->counter("integrity.repairs");
    m_pin_repairs_ = db_->metrics()->counter("integrity.pin_repairs");
  }
}

DynamicRetrieval::~DynamicRetrieval() {
  if (jscan_ != nullptr) jscan_->DetachContext();
}

uint64_t DynamicRetrieval::RepairsNow() const {
  uint64_t n = 0;
  if (m_repairs_ != nullptr) n += m_repairs_->value.load();
  if (m_pin_repairs_ != nullptr) n += m_pin_repairs_->value.load();
  return n;
}

const std::string& DynamicRetrieval::query_class() const {
  static const std::string kNoClass;
  return options_.profile && profile_store_ != nullptr ? class_key_ : kNoClass;
}

void DynamicRetrieval::ChargeSpan(ProfileSpan* span) {
  if (span == charged_span_) return;  // fast path: zero clock reads
  auto now = std::chrono::steady_clock::now();
  if (charged_span_ != nullptr) {
    charged_span_->elapsed_micros +=
        std::chrono::duration<double, std::micro>(now - charged_since_)
            .count();
  }
  charged_span_ = span;
  charged_since_ = now;
}

void DynamicRetrieval::EnterMode(Mode mode) {
  mode_ = mode;
  events_.Emit(TraceEventKind::kStageTransition,
               std::string(ModeName(static_cast<uint8_t>(mode))));
}

void DynamicRetrieval::Decide(Verdict verdict, std::string_view detail,
                              double a, double b) {
  events_.Emit(TraceEventKind::kCompetitionVerdict,
               std::string(VerdictName(verdict)), std::string(detail), a, b);
  // A verdict under a live competition span is the race settling: snapshot
  // what each competitor had spent at that moment. Later verdicts (e.g. a
  // fallback after the settle) overwrite — the sample reflects the last
  // word. Steppers are still alive here, the race's Jscan included;
  // verdicts fire before moves.
  if (options_.profile && span_competition_ != nullptr) {
    sample_ = CompetitionSample{tactic_, verdict, ForegroundCost(),
                                jscan_->AccruedCost(db_->cost_weights()),
                                jscan_->guaranteed_best_cost()};
  }
}

Status DynamicRetrieval::Open(const ParamMap& params, QueryContext* ctx) {
  // Publish the governing context and this execution's meter for the call:
  // the pool's retry backoff looks up CurrentQueryContext() so a Cancel()
  // or deadline can wake the wait, and every charge lands in meter_.
  ScopedQueryContext current(ctx);
  meter_ = CostMeter();
  ScopedCostMeter metered(&meter_, db_->pool()->shared_meter());
  params_ = params;
  pending_.Reset(spec_.projection.size());
  pending_pos_ = 0;
  delivered_.clear();
  events_.Clear();
  // The previous execution's context may be gone.
  if (jscan_ != nullptr) jscan_->DetachContext();
  jscan_.reset();
  owned_.reset();
  single_ = fgr_ = nullptr;
  track_delivered_ = false;
  delivers_order_ = false;
  rows_delivered_ = 0;
  predicted_rows_ = 0;
  predicted_cost_ = 0;
  raw_predicted_rows_ = 0;
  raw_predicted_cost_ = 0;
  feedback_recorded_ = false;
  features_ = QueryClassFeatures(params_);
  class_key_ = class_prefix_ + QueryClassParamSuffix(params_);
  ctx_ = ctx;
  fallback_armed_ = ctx != nullptr && ctx->degraded_fallback_enabled();
  single_is_tscan_ = false;
  brownout_plain_fscan_ = false;
  if (options_.profile) {
    profile_.Begin("query");
    open_time_ = std::chrono::steady_clock::now();
  } else {
    profile_.Clear();
  }
  profile_finished_ = false;
  span_single_ = span_fg_ = span_bg_ = nullptr;
  span_competition_ = span_rows_ = charged_span_ = nullptr;
  sample_.reset();
  repairs_at_open_ = RepairsNow();

  // Each execution's completed index order seeds the next one's
  // estimation preorder (§5).
  auto analyzed = AnalyzeAccessPaths(
      spec_, params_, options_.initial,
      !previous_order_.empty() ? &previous_order_ : nullptr);
  if (!analyzed.ok()) {
    // An index is unreadable before any tactic exists. The heap is a
    // separate page population, so a Tscan still answers the query.
    if (!CanDegrade(analyzed.status())) return analyzed.status();
    analysis_ = AccessPathAnalysis();
    tactic_ = Tactic::kStaticTscan;
    ComputePredictions();
    events_.Emit(TraceEventKind::kTacticChosen,
                 std::string(TacticName(tactic_)), "", predicted_rows_,
                 predicted_cost_);
    return FallBackToTscan("analysis", analyzed.status());
  }
  analysis_ = std::move(*analyzed);
  events_.Emit(TraceEventKind::kAnalysis, "access-paths", "",
               static_cast<double>(analysis_.estimation_pages),
               static_cast<double>(analysis_.indexes.size()));
  DYNOPT_RETURN_IF_ERROR(DecideTactic());
  MaybePinBrownoutStrategy();
  ComputePredictions();
  events_.Emit(TraceEventKind::kTacticChosen, std::string(TacticName(tactic_)),
               "", predicted_rows_, predicted_cost_);
  Status set_up = SetUpTactic();
  if (set_up.ok()) return set_up;
  // E.g. the tiny-range shortcut's index probe hit the fault.
  return FallBackToTscan(std::string(TacticName(tactic_)), set_up);
}

void DynamicRetrieval::ComputePredictions() {
  const CostWeights& w = db_->cost_weights();
  // Cardinality: the tightest restricted-index estimate, or the whole table
  // when nothing narrows the retrieval.
  double rows = -1;
  for (const IndexClassification& c : analysis_.indexes) {
    if (c.has_restriction && c.estimated) {
      double est = c.estimate.estimated_rids;
      if (rows < 0 || est < rows) rows = est;
    }
  }
  if (rows < 0) rows = static_cast<double>(spec_.table->record_count());
  if (tactic_ == Tactic::kShortcutEmpty) rows = 0;
  predicted_rows_ = rows;

  // Cost as a function of the cardinality estimate, so a learned rows
  // correction flows into the fetch-dependent terms.
  auto cost_for = [&](double nrows) -> double {
    switch (tactic_) {
      case Tactic::kShortcutEmpty:
        return 0;
      case Tactic::kShortcutTiny:
        return EstimateFetchCost(nrows, spec_, w);
      case Tactic::kStaticTscan:
        return EstimateTscanCost(spec_, w);
      case Tactic::kStaticSscan:
      case Tactic::kIndexOnly:
        return EstimateIndexScanCost(
            analysis_.indexes[analysis_.best_self_sufficient], w);
      case Tactic::kSorted:
        return EstimateIndexScanCost(
                   analysis_.indexes[analysis_.order_needed], w) +
               EstimateFetchCost(nrows, spec_, w);
      case Tactic::kBackgroundOnly:
      case Tactic::kFastFirst: {
        // First Jscan candidate's scan plus fetching the predicted list.
        double scan = analysis_.jscan_order.empty()
                          ? 0.0
                          : EstimateIndexScanCost(
                                analysis_.indexes[analysis_.jscan_order[0]],
                                w);
        return scan + EstimateFetchCost(nrows, spec_, w);
      }
      case Tactic::kUndecided:
        return 0;
    }
    return 0;
  };

  raw_predicted_rows_ = rows;
  raw_predicted_cost_ = cost_for(rows);
  predicted_rows_ = rows;
  predicted_cost_ = raw_predicted_cost_;

  // Learned correction (nullopt in controlled mode, for unknown classes,
  // and below the sample floor). Applied to the raw analytic estimate only
  // — the model always learns against raw predictions, so corrections
  // cannot compound across executions.
  if (learning_ != nullptr && tactic_ != Tactic::kShortcutEmpty &&
      tactic_ != Tactic::kUndecided) {
    if (auto corr = learning_->Lookup(class_prefix_, features_)) {
      predicted_rows_ = rows * corr->rows_factor;
      predicted_cost_ = cost_for(predicted_rows_) * corr->cost_factor;
      events_.Emit(TraceEventKind::kLearnedCorrectionApplied, "estimate",
                   "rows x" + std::to_string(corr->rows_factor) + " cost x" +
                       std::to_string(corr->cost_factor),
                   predicted_rows_, raw_predicted_rows_);
      learning_->NoteApplied(class_prefix_);
    }
  }

  if (profile_.active()) {
    ProfileSpan* root = profile_.root();
    root->estimated_rows = predicted_rows_;
    root->estimated_cost = predicted_cost_;
  }
}

void DynamicRetrieval::RecordFeedback() {
  if (feedback_recorded_) return;
  feedback_recorded_ = true;
  FinalizeProfile();
  if (tactic_ == Tactic::kUndecided) return;
  double actual_cost = CostSinceOpen().Cost(db_->cost_weights());
  if (profile_store_ != nullptr && options_.profile) {
    ProfileStore::Sample s;
    s.latency_micros =
        profile_.active() ? profile_.root()->elapsed_micros : 0;
    s.predicted_rows = predicted_rows_;
    s.actual_rows = static_cast<double>(rows_delivered_);
    s.predicted_cost = predicted_cost_;
    s.actual_cost = actual_cost;
    s.plan = std::string(TacticName(tactic_));
    profile_store_->Record(class_key_, s);
  }
  // The learning write path (no-op unless the model is in learn mode):
  // harvest this execution's actuals against the raw predictions, and —
  // when one strategy ran to completion — its measured full-run cost under
  // the full class key, the figure the §3 competition narrows around.
  if (learning_ != nullptr) {
    learning_->Observe(class_prefix_, features_, raw_predicted_rows_,
                       static_cast<double>(rows_delivered_),
                       raw_predicted_cost_, actual_cost);
    if (mode_ == Mode::kDone) {
      // The final stage is a fetch of the Jscan's list, not a strategy a
      // brownout can pin, so it records no strategy cost.
      ScanStepper* winner = single_ != nullptr ? single_ : fgr_;
      if (winner != nullptr && !IsFetch(winner) && winner->exhausted()) {
        learning_->ObserveStrategyCost(class_key_, winner->label(),
                                       winner->AccruedCost(
                                           db_->cost_weights()));
      }
    }
  }
}

Status DynamicRetrieval::DecideTactic() {
  if (analysis_.empty_shortcut) {
    tactic_ = Tactic::kShortcutEmpty;
    events_.Emit(TraceEventKind::kShortcut, "empty-range");
    return Status::OK();
  }
  if (analysis_.tiny_shortcut) {
    tactic_ = Tactic::kShortcutTiny;
    events_.Emit(TraceEventKind::kShortcut, "tiny-range",
                 analysis_.indexes[analysis_.tiny_index].index->name());
    return Status::OK();
  }
  bool has_ss = analysis_.best_self_sufficient >= 0;
  // Jscan candidates other than the covering index itself: racing an Sscan
  // against a joint scan of the same index resolves nothing.
  bool has_jscan = false;
  for (size_t pos : analysis_.jscan_order) {
    if (!has_ss ||
        static_cast<int>(pos) != analysis_.best_self_sufficient) {
      has_jscan = true;
    }
  }
  bool has_ord =
      spec_.order_by_column.has_value() && analysis_.order_needed >= 0;

  if (has_ord) {
    // An order-needed index exists: the Sorted tactic covers both goals
    // (its background Jscan may be empty, degenerating to a plain Fscan).
    tactic_ = Tactic::kSorted;
    return Status::OK();
  }
  if (has_ss && has_jscan) {
    tactic_ = Tactic::kIndexOnly;
    return Status::OK();
  }
  if (has_ss) {
    tactic_ = Tactic::kStaticSscan;  // §4's clear static case
    return Status::OK();
  }
  if (!has_jscan) {
    tactic_ = Tactic::kStaticTscan;  // §4's other clear static case
    return Status::OK();
  }
  tactic_ = spec_.goal == OptimizationGoal::kFastFirst
                ? Tactic::kFastFirst
                : Tactic::kBackgroundOnly;
  return Status::OK();
}

void DynamicRetrieval::MaybePinBrownoutStrategy() {
  if (ctx_ == nullptr || !ctx_->brownout_pin_strategy()) return;
  switch (tactic_) {
    case Tactic::kSorted:
      // Order must survive the pin, so the only safe target is the ordered
      // foreground itself: drop the background candidates and run the
      // degenerate plain-Fscan arm of the Sorted tactic.
      brownout_plain_fscan_ = true;
      Decide(Verdict::kBrownoutPinned, "fscan");
      return;
    case Tactic::kFastFirst:
    case Tactic::kBackgroundOnly:
    case Tactic::kIndexOnly:
      break;  // unordered competitions: pin by learned cost below
    default:
      return;  // shortcuts and static tactics already run one strategy
  }
  if (learning_ == nullptr) return;
  // Per-strategy cost accounts are keyed by stepper label ("Tscan",
  // "Sscan(<index>)") under the full class key — the PR 8 read path.
  std::optional<SelectivityModel::StrategyCost> sscan;
  if (analysis_.best_self_sufficient >= 0) {
    sscan = learning_->LookupStrategyCost(
        class_key_,
        "Sscan(" +
            analysis_.indexes[analysis_.best_self_sufficient].index->name() +
            ")");
  }
  std::optional<SelectivityModel::StrategyCost> tscan =
      learning_->LookupStrategyCost(class_key_, "Tscan");
  if (!sscan.has_value() && !tscan.has_value()) return;
  if (sscan.has_value() &&
      (!tscan.has_value() || sscan->mean_cost <= tscan->mean_cost)) {
    tactic_ = Tactic::kStaticSscan;
    Decide(Verdict::kBrownoutPinned, "sscan", sscan->mean_cost,
           static_cast<double>(sscan->samples));
  } else {
    tactic_ = Tactic::kStaticTscan;
    Decide(Verdict::kBrownoutPinned, "tscan", tscan->mean_cost,
           static_cast<double>(tscan->samples));
  }
}

Status DynamicRetrieval::SetUpTactic() {
  // Strategy-span factory: null-safe (inactive profile → null parent →
  // AddSpan returns null, and every attribution site tolerates null).
  auto strategy_span = [&](ProfileSpan* parent, std::string_view name,
                           double est_cost) {
    ProfileSpan* s = profile_.AddSpan(parent, SpanKind::kStrategy, name);
    if (s != nullptr) {
      s->estimated_rows = predicted_rows_;
      s->estimated_cost = est_cost;
    }
    return s;
  };

  auto jscan_candidates =
      [&](int exclude) -> std::vector<const IndexClassification*> {
    std::vector<const IndexClassification*> cands;
    for (size_t pos : analysis_.jscan_order) {
      if (static_cast<int>(pos) == exclude) continue;
      cands.push_back(&analysis_.indexes[pos]);
    }
    return cands;
  };

  auto start_jscan = [&](std::vector<const IndexClassification*> cands) {
    jscan_ = std::make_unique<Jscan>(db_, spec_, params_, std::move(cands),
                                     options_.jscan);
    jscan_->set_trace(&events_);
    jscan_->set_context(ctx_);
    jscan_->set_tolerate_io_faults(fallback_armed_);
  };

  // Races `fg` against the Jscan: the competition span holds the
  // foreground span `name` and the Jscan's; the foreground gets credit for
  // delivered rows.
  auto start_race = [&](ScanStepper* fg, std::string_view name, double fg_cost,
                        double bg_cost) {
    fgr_ = fg;
    fgr_->set_context(ctx_);
    span_competition_ =
        profile_.AddSpan(profile_.root(), SpanKind::kCompetition, "race");
    span_fg_ = strategy_span(span_competition_, name, fg_cost);
    span_bg_ = strategy_span(span_competition_, "jscan", bg_cost);
    span_rows_ = span_fg_;
    EnterMode(Mode::kRace);
  };

  switch (tactic_) {
    case Tactic::kShortcutEmpty:
      EnterMode(Mode::kDone);
      return Status::OK();

    case Tactic::kShortcutTiny: {
      const IndexClassification& c = analysis_.indexes[analysis_.tiny_index];
      RidBatch entries;
      entries.Clear(/*collect_keys=*/false);
      MultiRangeCursor cursor(c.index->tree(), &c.ranges);
      Result<bool> more = true;
      uint64_t pages = meter_.logical_reads;
      // One call: the exact estimate counted the range's entries.
      while (more.ok() && *more) {
        more = cursor.NextBatch(entries.size() + c.estimate.k + 1, &entries);
      }
      ChargePagesReadSince(pages);
      DYNOPT_RETURN_IF_ERROR(more.status());
      return BeginFinalStage({entries.rids().begin(), entries.rids().end()});
    }

    case Tactic::kStaticTscan:
      single_is_tscan_ = true;
      StartSingle(
          Own(std::make_unique<TscanStepper>(db_->pool(), spec_, params_)),
          strategy_span(profile_.root(), "tscan", predicted_cost_));
      return Status::OK();

    case Tactic::kStaticSscan: {
      const IndexClassification& c =
          analysis_.indexes[analysis_.best_self_sufficient];
      delivers_order_ = spec_.order_by_column.has_value() && c.order_needed;
      StartSingle(Own(std::make_unique<SscanStepper>(
                      db_->pool(), spec_, params_, c.index, c.ranges)),
                  strategy_span(profile_.root(), "sscan", predicted_cost_));
      return Status::OK();
    }

    case Tactic::kBackgroundOnly:
      start_jscan(jscan_candidates(-1));
      span_bg_ = strategy_span(profile_.root(), "jscan", -1);
      EnterMode(Mode::kBackground);
      return Status::OK();

    case Tactic::kFastFirst:
      start_jscan(jscan_candidates(-1));
      ff_fetch_.Restart();
      track_delivered_ = true;
      start_race(&ff_fetch_, "fast-first-fetch", -1, predicted_cost_);
      return Status::OK();

    case Tactic::kSorted: {
      const IndexClassification& c = analysis_.indexes[analysis_.order_needed];
      auto fscan = std::make_unique<FscanStepper>(db_->pool(), spec_, params_,
                                                  c.index, c.ranges);
      if (c.covered_residual != nullptr) fscan->SetScreen(c.covered_residual);
      delivers_order_ = true;
      auto rest = jscan_candidates(analysis_.order_needed);
      if (brownout_plain_fscan_) rest.clear();
      if (rest.empty()) {
        Decide(Verdict::kNoBackground, "plain fscan");
        StartSingle(Own(std::move(fscan)),
                    strategy_span(profile_.root(), "fscan", predicted_cost_));
        return Status::OK();
      }
      start_jscan(std::move(rest));
      start_race(Own(std::move(fscan)), "fscan", predicted_cost_, -1);
      return Status::OK();
    }

    case Tactic::kIndexOnly: {
      const IndexClassification& c =
          analysis_.indexes[analysis_.best_self_sufficient];
      delivers_order_ = spec_.order_by_column.has_value() && c.order_needed;
      start_jscan(jscan_candidates(analysis_.best_self_sufficient));
      track_delivered_ = true;
      start_race(Own(std::make_unique<SscanStepper>(db_->pool(), spec_,
                                                    params_, c.index,
                                                    c.ranges)),
                 "sscan", predicted_cost_, -1);
      return Status::OK();
    }

    case Tactic::kUndecided:
      break;
  }
  return Status::Internal("tactic decision failed");
}

Result<bool> DynamicRetrieval::NextBatch(RowBatch* out, size_t max_rows) {
  ScopedQueryContext current(ctx_);  // see Open()
  ScopedCostMeter metered(&meter_, db_->pool()->shared_meter());
  out->Reset(spec_.projection.size());
  max_rows = std::max<size_t>(max_rows, 1);
  size_t waiting = pending_.num_rows() - pending_pos_;
  if (waiting > 0) {
    size_t n = std::min(waiting, max_rows);
    out->Append(pending_, pending_.sel().data() + pending_pos_, n);
    pending_pos_ += n;
    if (pending_pos_ == pending_.num_rows()) {
      pending_.Clear();
      pending_pos_ = 0;
    }
  }
  out_ = out;
  out_room_ = max_rows;
  Status st = Status::OK();
  while (st.ok() && out->num_rows() == 0 && mode_ != Mode::kDone) {
    st = Pump();
  }
  out_ = nullptr;
  if (!st.ok()) return Fail(std::move(st));
  if (out->num_rows() == 0) {
    RecordFeedback();
    return false;
  }
  rows_delivered_ += out->num_rows();
  Bump(exec_.rows_delivered, out->num_rows());
  return true;
}

Status DynamicRetrieval::Fail(Status st) {
  FinalizeProfile();  // before teardown, while stepper costs are readable
  jscan_.reset();
  owned_.reset();
  single_ = fgr_ = nullptr;
  pending_.Clear();
  pending_pos_ = 0;
  mode_ = Mode::kDone;
  events_.Emit(TraceEventKind::kStageTransition, "aborted",
               std::string(st.message()));
  return st;
}

Status DynamicRetrieval::FallBackToTscan(std::string subject,
                                         const Status& cause) {
  if (!CanDegrade(cause)) return cause;
  events_.Emit(TraceEventKind::kStrategyDisqualified, subject,
               "io_fault: " + std::string(cause.message()));
  Decide(Verdict::kIoFaultFallback, subject);
  Bump(m_fallbacks_);
  // Every strategy goes but the last-resort Tscan: their spans keep the
  // costs they accrued.
  StampSpanCosts();
  jscan_.reset();
  fgr_ = nullptr;
  delivers_order_ = false;
  StartTscan();
  return Status::OK();
}

void DynamicRetrieval::StartSingle(ScanStepper* stepper, ProfileSpan* span,
                                   Mode mode) {
  single_ = stepper;
  single_->set_context(ctx_);
  span_single_ = span;
  span_rows_ = span;
  EnterMode(mode);
}

void DynamicRetrieval::StartTscan() {
  single_is_tscan_ = true;
  StartSingle(Own(std::make_unique<TscanStepper>(db_->pool(), spec_, params_)),
              profile_.AddSpan(profile_.root(), SpanKind::kStrategy, "tscan"));
}

void DynamicRetrieval::RememberDelivered(Rid rid) {
  if (delivered_.insert(rid).second && ctx_ != nullptr) {
    ctx_->ChargeRidListBytes(sizeof(Rid));
  }
}

void DynamicRetrieval::Deliver(const RowBatch& src,
                               const std::vector<uint32_t>& rows) {
  // While the fallback net is armed and a fallback can still occur,
  // remember every RID handed out: a mid-flight degradation to Tscan must
  // not re-deliver them. The set is charged against the context's RID-list
  // budget; recording stops once the last-resort Tscan or the final stage
  // is running, from which no further fallback happens.
  if (FallbackStillPossible()) {
    for (uint32_t r : rows) RememberDelivered(src.rid(r));
  }
  if (span_rows_ != nullptr) span_rows_->actual_rows += rows.size();
  size_t room = out_ != nullptr ? out_room_ - out_->num_rows() : 0;
  size_t n = std::min(rows.size(), room);
  const uint32_t* proj = spec_.projection.data();
  if (n > 0) out_->Append(src, rows.data(), n, proj);
  pending_.Append(src, rows.data() + n, rows.size() - n, proj);
}

Status DynamicRetrieval::Pump() {
  // Wall time accrues to the span of the strategy owning the quantum, but
  // the clock is only read when ownership *changes* (ChargeSpan): quanta
  // are entry-granular, and a clock pair per quantum alone blows the
  // bench_profile 5% overhead gate. kRace charges inside StepRace, where
  // the pacing decision knows which competitor moves. The stepped strategy
  // polls the context; the engine itself never does.
  switch (mode_) {
    case Mode::kSingle:
    case Mode::kFinal:
      ChargeSpan(span_single_);
      return StepSingle();
    case Mode::kBackground:
      ChargeSpan(span_bg_);
      return StepBackground();
    case Mode::kRace:
      return StepRace();
    case Mode::kDone:
      return Status::OK();
  }
  return Status::Internal("invalid retrieval mode");
}

Status DynamicRetrieval::StepSingle() {
  auto stepped = single_->Step(options_.batch_size);
  if (!stepped.ok()) return StrategyFailed(*single_, stepped.status());
  if (!*stepped) {
    EnterMode(Mode::kDone);
    return Status::OK();
  }
  const RowBatch& batch = single_->output();
  // A FetchStepper never fetched a delivered RID in the first place.
  if (delivered_.empty() || single_ == &final_fetch_) {
    Deliver(batch, batch.sel());
    return Status::OK();
  }
  fresh_.clear();
  for (uint32_t r : batch.sel()) {
    if (!AlreadyDelivered(batch.rid(r))) fresh_.push_back(r);
  }
  Deliver(batch, fresh_);
  return Status::OK();
}

Status DynamicRetrieval::StepBackground() {
  if (jscan_->exhausted()) return OnBackgroundSettled();
  return StepJscan();
}

Status DynamicRetrieval::StepJscan() {
  Status st = jscan_->Step(options_.batch_size).status();
  return st.ok() ? st : StrategyFailed(*jscan_, st);
}

Status DynamicRetrieval::StepRace() {
  if (jscan_->exhausted()) {
    ChargeSpan(span_competition_);
    return OnBackgroundSettled();
  }
  double bgr_cost = jscan_->AccruedCost(db_->cost_weights());
  if (bgr_cost <= options_.fgr_bgr_cost_ratio * ForegroundCost()) {
    ChargeSpan(span_bg_);
    return StepJscan();
  }
  ChargeSpan(span_fg_);
  return StepForeground();
}

Status DynamicRetrieval::StepForeground() {
  if (tactic_ == Tactic::kFastFirst) {
    // §7: the foreground fetches the next RID it borrows from the Jscan.
    std::optional<Rid> rid = jscan_->BorrowNextRid();
    if (!rid.has_value()) {
      // Starved: nothing new to borrow, give the quantum to the Jscan.
      return StepJscan();
    }
    ff_fetch_.Queue(*rid);
  }
  auto stepped = fgr_->Step(options_.batch_size);
  if (!stepped.ok()) return StrategyFailed(*fgr_, stepped.status());
  if (!*stepped) {
    Decide(Verdict::kForegroundFinished,
           VerdictWinner(Verdict::kForegroundFinished, tactic_));
    EnterMode(Mode::kDone);
    return Status::OK();
  }
  const RowBatch& batch = fgr_->output();
  if (tactic_ == Tactic::kFastFirst) {
    // Every fetched RID counts as delivered, qualifying or not, so the
    // final stage never fetches it again.
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      RememberDelivered(batch.rid(r));
    }
  } else if (track_delivered_) {
    for (uint32_t r : batch.sel()) RememberDelivered(batch.rid(r));
  }
  Deliver(batch, batch.sel());

  // Competition criteria for terminating the foreground (§7).
  const CostWeights& w = db_->cost_weights();
  switch (tactic_) {
    case Tactic::kFastFirst:
      if (delivered_.size() >= options_.fgr_buffer_capacity) {
        Decide(Verdict::kFgrBufferOverflow, "background-only",
               static_cast<double>(delivered_.size()));
        EnterMode(Mode::kBackground);
      } else if (fgr_->AccruedCost(w) > options_.fgr_cost_limit_fraction *
                                            jscan_->guaranteed_best_cost()) {
        Decide(Verdict::kFgrCostLimit, "background-only", fgr_->AccruedCost(w),
               jscan_->guaranteed_best_cost());
        EnterMode(Mode::kBackground);
      }
      return Status::OK();
    case Tactic::kIndexOnly:
      if (delivered_.size() >= options_.fgr_buffer_capacity) {
        // The safer strategy survives the buffer overflow (§7).
        Decide(Verdict::kFgrBufferOverflow, "sscan-retained",
               static_cast<double>(delivered_.size()));
        track_delivered_ = false;
        if (!fallback_armed_) delivered_.clear();
        StartSingle(std::exchange(fgr_, nullptr), span_fg_);
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

Status DynamicRetrieval::OnBackgroundSettled() {
  if (!jscan_->completed_order().empty()) {
    previous_order_ = jscan_->completed_order();
  }
  bool complete = jscan_->phase() == Jscan::Phase::kComplete;
  switch (tactic_) {
    case Tactic::kBackgroundOnly:
    case Tactic::kFastFirst: {
      // Only a settle inside the fast-first race says so and counts the
      // foreground's deliveries; background-only and a handed-over race
      // settle plainly.
      bool race = mode_ == Mode::kRace;
      if (complete) {
        uint64_t pages = meter_.logical_reads;
        std::vector<Rid> rids = jscan_->final_list()->ToSortedVector();
        ChargePagesReadSince(pages);
        Decide(Verdict::kJscanComplete, race ? "during race" : "",
               static_cast<double>(rids.size()),
               race ? static_cast<double>(delivered_.size()) : 0);
        return BeginFinalStage(std::move(rids));
      }
      Decide(Verdict::kJscanRecommendsTscan, race ? "foreground switches" : "");
      StartTscan();  // delivered_ filters duplicates
      return Status::OK();
    }

    case Tactic::kSorted:
      if (complete) {
        Decide(Verdict::kFilterInstalled, "",
               static_cast<double>(jscan_->final_list()->size()));
        // The Sorted tactic's foreground is an Fscan.
        static_cast<FscanStepper*>(fgr_)->SetPreFetchFilter(
            jscan_->final_list());
      } else {
        Decide(Verdict::kNoFilter);
      }
      // The winning foreground stepper carries on as the lone strategy;
      // its span keeps accruing under the kSingle quantum timer.
      StartSingle(std::exchange(fgr_, nullptr), span_fg_);
      return Status::OK();

    case Tactic::kIndexOnly:
      if (complete) {
        // §7: the Sscan is abandoned only "with a small enough RID list" —
        // when the sure final-stage fetch undercuts what finishing the
        // (safer) Sscan is still expected to cost.
        const CostWeights& w = db_->cost_weights();
        double ss_total = EstimateIndexScanCost(
            analysis_.indexes[analysis_.best_self_sufficient], w);
        double ss_remaining =
            std::max(0.0, ss_total - fgr_->AccruedCost(w));
        double fin_cost = EstimateFetchCost(
            static_cast<double>(jscan_->final_list()->size()), spec_, w);
        // Learned narrowing (§3): when past executions of this class ran
        // the Sscan to completion, re-express the analytic remaining cost
        // as an L-shaped prior and shrink it toward the measured mean m:
        // every quantile moves to (1−weight)·Q(p) + weight·m, so the mean
        // does too, and a weight below 1 keeps the prior's tail. The
        // narrowed mean replaces the analytic one in the abandon decision —
        // a learned correction can change who wins the competition.
        double ss_used = ss_remaining;
        if (learning_ != nullptr) {
          if (auto learned = learning_->LookupStrategyCost(
                  class_key_, fgr_->label())) {
            double learned_remaining = std::max(
                0.0, learned->mean_cost - fgr_->AccruedCost(w));
            double span =
                std::max({ss_remaining, learned_remaining, 1.0});
            double cmax = 2.2 * span;  // both means feasible (< cmax/2)
            TruncatedHyperbolaCost prior(
                FitHyperbolaToMean(std::max(ss_remaining, 1e-3), cmax),
                cmax);
            double weight = std::clamp(
                static_cast<double>(learned->samples) /
                    (static_cast<double>(learned->samples) + 1.0),
                0.0, 1.0 - 1e-9);
            ss_used = (1.0 - weight) * prior.Mean() +
                      weight * learned_remaining;
            events_.Emit(TraceEventKind::kLearnedCorrectionApplied,
                         "competition", fgr_->label(), ss_used,
                         ss_remaining);
            if ((fin_cost < ss_used) != (fin_cost < ss_remaining)) {
              learning_->NoteCompetitionOverride();
            }
          }
        }
        if (fin_cost < ss_used) {
          uint64_t pages = meter_.logical_reads;
          std::vector<Rid> rids = jscan_->final_list()->ToSortedVector();
          ChargePagesReadSince(pages);
          // The abandoned Sscan stays fgr_, so its span reports its cost.
          Decide(Verdict::kJscanWon, "sscan abandoned", fin_cost, ss_used);
          return BeginFinalStage(std::move(rids));
        }
        Decide(Verdict::kSscanRetained, "list too costly", fin_cost, ss_used);
      } else {
        Decide(Verdict::kJscanRecommendsTscan, "sscan continues");
      }
      track_delivered_ = false;
      if (!fallback_armed_) delivered_.clear();
      StartSingle(std::exchange(fgr_, nullptr), span_fg_);
      return Status::OK();

    default:
      return Status::Internal("background settled in non-race tactic");
  }
}

Status DynamicRetrieval::BeginFinalStage(std::vector<Rid> rids) {
  // Page-sorted, so one pin covers every row a step fetches from a page.
  // Heap-page faults are not degradable (StrategyFailed): a fallback Tscan
  // reads the same pages.
  std::sort(rids.begin(), rids.end());
  ProfileSpan* span =
      profile_.AddSpan(profile_.root(), SpanKind::kStrategy, "final-fetch");
  if (span != nullptr) span->estimated_rows = static_cast<double>(rids.size());
  final_fetch_.Restart(std::move(rids));
  StartSingle(&final_fetch_, span, Mode::kFinal);
  return Status::OK();
}

void DynamicRetrieval::StampSpanCosts() {
  const CostWeights& w = db_->cost_weights();
  if (span_single_ != nullptr && single_ != nullptr) {
    span_single_->actual_cost = single_->AccruedCost(w);
  }
  // A foreground that settled into single_ was stamped above; one that
  // lost keeps fgr_ until a fallback lets it go.
  if (span_fg_ != nullptr && fgr_ != nullptr) {
    span_fg_->actual_cost = fgr_->AccruedCost(w);
  }
  if (span_bg_ != nullptr && jscan_ != nullptr) {
    span_bg_->actual_cost = jscan_->AccruedCost(w);
  }
}

void DynamicRetrieval::FinalizeProfile() {
  if (!profile_.active() || profile_finished_) return;
  profile_finished_ = true;
  ChargeSpan(nullptr);  // flush the open accrual into its span
  const CostWeights& w = db_->cost_weights();

  ProfileSpan* root = profile_.root();
  root->elapsed_micros = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - open_time_)
                             .count();
  root->actual_rows = rows_delivered_;
  root->actual_cost = CostSinceOpen().Cost(w);

  StampSpanCosts();
  if (span_competition_ != nullptr) {
    // A span's elapsed time is inclusive of its children; the competition
    // span itself only timed the settle quantum until now.
    double fg_e = span_fg_ != nullptr ? span_fg_->elapsed_micros : 0;
    double bg_e = span_bg_ != nullptr ? span_bg_->elapsed_micros : 0;
    span_competition_->elapsed_micros += fg_e + bg_e;
    double fg_c = span_fg_ != nullptr ? span_fg_->actual_cost : 0;
    double bg_c = span_bg_ != nullptr ? span_bg_->actual_cost : 0;
    span_competition_->actual_cost = fg_c + bg_c;
  }

  ProfileConsumption c;
  if (ctx_ != nullptr) {
    c.governed = true;
    c.pages_read = ctx_->pages_read();
    c.rid_list_bytes = ctx_->rid_list_bytes();
    c.spill_bytes = ctx_->spill_bytes();
    c.polls = ctx_->polls();
  }
  c.pages_repaired = RepairsNow() - repairs_at_open_;
  profile_.set_consumption(c);
}

}  // namespace dynopt
