// DynamicRetrieval — the paper's single-table retrieval subsystem (Fig 4).
//
// One object per retrieval node; Open(params) re-optimizes per execution
// (the cure for host-variable sensitivity), then NextBatch() pulls column
// batches of projected rows while the engine runs its tactic underneath:
//
//   Shortcuts (§5)     empty range → no rows at once; tiny exact range →
//                      straight to the final fetch stage.
//   Static clear cases Tscan when no index helps; Sscan when one covering
//                      index obviously wins.
//   Background-Only    Jscan to completion, then the final stage (Fin), a
//                      FetchStepper, fetches the sorted RID list (§7).
//   Fast-First         a foreground FetchStepper borrows RIDs from the
//                      live Jscan, one per quantum, fetches and delivers
//                      immediately, and is terminated by competition when
//                      fast-first satisfaction stops being realistic (§7).
//   Sorted             Fscan on the best order-needed index races Jscan
//                      over the remaining indexes; the completed Jscan
//                      filter is installed into the Fscan to reject RIDs
//                      before their record fetches (§7).
//   Index-Only         the best Sscan races Jscan; Sscan survives a
//                      foreground-buffer overflow (it is the safer
//                      strategy), Jscan wins by finishing small (§7).
//
// The foreground/background "simultaneous" run is a deterministic
// interleaving paced by accrued cost at a configurable ratio. Every
// strategy, the Jscan included, is a stepper (exec/steppers.h): each one
// meters its own cost, polls the query's context once per quantum and
// charges the quantum's page reads as it ends. Every
// decision the engine takes is emitted as a typed event (events(), see
// obs/trace.h) that tests assert against and EXPLAIN renders one line per
// event (the Fig 4/Fig 6 state transitions). That log is the execution's
// one record of its decisions; the span profile records only what it
// measured.
//
// Rows leave the way the steppers produce them: each quantum's survivors
// are gathered column by column from the stepper's batch and selection
// vector into the caller's batch, and rows past the caller's max_rows
// wait in one engine-owned batch for the next pull.

#ifndef DYNOPT_CORE_RETRIEVAL_H_
#define DYNOPT_CORE_RETRIEVAL_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/database.h"
#include "core/access_path.h"
#include "core/jscan.h"
#include "governance/query_context.h"
#include "exec/retrieval_spec.h"
#include "exec/steppers.h"
#include "index/multi_range_cursor.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dynopt {

enum class Tactic : uint8_t {
  kUndecided,
  kShortcutEmpty,
  kShortcutTiny,
  kStaticTscan,
  kStaticSscan,
  kBackgroundOnly,
  kFastFirst,
  kSorted,
  kIndexOnly,
};

std::string_view TacticName(Tactic t);

/// A run-time competition decision (§7), emitted as a kCompetitionVerdict
/// event whose subject is VerdictName.
enum class Verdict : uint8_t {
  kBrownoutPinned,       // a brownout replaced the race by one strategy
  kNoBackground,         // Sorted with no Jscan candidate: a plain Fscan
  kIoFaultFallback,      // an index strategy faulted; a Tscan takes over
  kForegroundFinished,   // the race foreground finished first
  kFgrBufferOverflow,    // the foreground's delivered-RID buffer filled
  kFgrCostLimit,         // the fast-first foreground got too expensive
  kJscanComplete,        // the Jscan's list goes to the final stage
  kJscanRecommendsTscan, // the Jscan completed no list
  kFilterInstalled,      // the Jscan's list filters the Sorted Fscan
  kNoFilter,             // the Sorted Fscan carries on unfiltered
  kJscanWon,             // the Jscan's list beat the Index-Only Sscan
  kSscanRetained,        // the Index-Only Sscan beat the Jscan's list
};

/// The verdict's stable slug ("jscan-won", ...), as events and exports
/// spell it.
std::string_view VerdictName(Verdict v);
/// The strategy that delivers after verdict `v` under tactic `t`
/// ("tscan", "sscan", "fscan", "fscan+filter" or "jscan").
std::string_view VerdictWinner(Verdict v, Tactic t);

/// The observed outcome of one run-time competition: the last verdict
/// that settled the race and what each competitor had spent at that
/// moment, in cost-model units. `guaranteed_best` is the fallback bound
/// the background scan competed against.
struct CompetitionSample {
  Tactic tactic = Tactic::kUndecided;
  Verdict verdict = Verdict::kJscanComplete;
  double foreground_cost = 0;
  double background_cost = 0;
  double guaranteed_best = 0;

  std::string_view winner() const { return VerdictWinner(verdict, tactic); }
  /// Cost sunk into the abandoned competitor — the run-time price of
  /// racing, the empirical counterpart of §3's (1-P)·c2 term. A filter
  /// install counts as zero: the background work was converted, not lost.
  double loser_cost() const;
};

struct RetrievalOptions {
  Jscan::Options jscan;
  InitialStageOptions initial;
  /// Foreground delivered-RID buffer capacity; overflow hands control to
  /// the background (fast-first) or kills it (index-only keeps Sscan).
  size_t fgr_buffer_capacity = 1024;
  /// The foreground is abandoned once its accrued cost exceeds this
  /// fraction of the current guaranteed best (fast-first only).
  double fgr_cost_limit_fraction = 0.5;
  /// Proportional speeds: step the background while its accrued cost is
  /// below `fgr_bgr_cost_ratio` times the foreground's.
  double fgr_bgr_cost_ratio = 1.0;
  /// Assemble a QueryProfile span tree alongside execution (the input to
  /// ExplainAnalyze and the database's ProfileStore). Off, every profiling
  /// site is a null-pointer branch and no clocks are read.
  bool profile = true;
  /// Input units (records / index entries) each stepper processes per
  /// quantum — the batch size of the vectorized executor and the grain of
  /// competition sampling, governance polls, and profiling charges. Tests
  /// pin 1 to recover row-at-a-time interleaving.
  size_t batch_size = kDefaultBatchRows;
};

class DynamicRetrieval {
 public:
  DynamicRetrieval(Database* db, RetrievalSpec spec,
                   RetrievalOptions options = RetrievalOptions());
  // The fetch steppers hold references into the engine itself.
  DynamicRetrieval(const DynamicRetrieval&) = delete;
  DynamicRetrieval& operator=(const DynamicRetrieval&) = delete;
  /// The last execution's context may already be gone: its RID lists are
  /// dropped without touching it.
  ~DynamicRetrieval();

  /// Binds parameters and (re)optimizes. May be called repeatedly; each
  /// call is an independent execution that reuses learned index order.
  ///
  /// `ctx` (optional, must outlive the execution) governs it: every
  /// quantum that steps a strategy charges its page reads and polls once
  /// for cancellation/deadline/budget, and —
  /// when the context allows degraded fallback — an I/O fault on an index
  /// strategy disqualifies it and the execution continues on a Tscan
  /// (already-delivered RIDs are deduplicated, so rows are exact).
  Status Open(const ParamMap& params, QueryContext* ctx = nullptr);

  /// Replaces `*out` with the next rows, at most `max_rows` (at least
  /// one is delivered), as a dense batch: column j holds projection column
  /// j and each row keeps its source RID. Returns false at end of
  /// retrieval, with `*out` empty. One call pumps the tactic only until a
  /// quantum yields rows, so `max_rows` = 1 is a one-row cursor that never
  /// scans ahead of the first row.
  Result<bool> NextBatch(RowBatch* out, size_t max_rows = kDefaultBatchRows);

  Tactic tactic() const { return tactic_; }
  /// True when rows come out in the requested order (the plan layer adds
  /// a sort otherwise).
  bool delivers_order() const { return delivers_order_; }
  /// True once this execution lost an index strategy to an I/O fault and
  /// fell back to the surviving competitor. The delivered row *set* stays
  /// exact (already-delivered RIDs are deduplicated), but a mid-flight
  /// fallback forfeits index-order delivery: delivers_order() flips to
  /// false, so order-sensitive callers must re-sort the remaining rows —
  /// DynamicRetrievalOperator does exactly that. Covers both engine-level
  /// fallbacks and scans the Jscan disqualified internally (it records
  /// them in the trace).
  bool degraded() const {
    return events_.EmittedCount(TraceEventKind::kStrategyDisqualified) > 0;
  }
  /// Typed trace of this execution (cleared by Open; keeps every event):
  /// analysis, shortcuts, the chosen tactic, every stage transition and
  /// competition verdict, per-index Jscan outcomes, disqualifications.
  const TraceLog& events() const { return events_; }
  const AccessPathAnalysis& analysis() const { return analysis_; }
  const Jscan* jscan() const { return jscan_.get(); }

  /// Rows handed out by NextBatch() this execution.
  uint64_t rows_delivered() const { return rows_delivered_; }
  /// Pre-execution predictions behind the kTacticChosen event; compared
  /// against actuals in the database's ProfileStore at end of retrieval.
  /// When the database's SelectivityModel has a learned correction for this
  /// query class (learn/frozen mode), these are the *corrected* figures; the
  /// raw_* accessors keep the uncorrected analytic estimates — also what
  /// the model learns from, so corrections never compound on themselves.
  double predicted_rows() const { return predicted_rows_; }
  double predicted_cost() const { return predicted_cost_; }
  double raw_predicted_rows() const { return raw_predicted_rows_; }
  double raw_predicted_cost() const { return raw_predicted_cost_; }

  /// Cost this execution has accrued so far, in its own meter.
  CostMeter CostSinceOpen() const { return meter_; }

  /// This execution's span profile (inactive when options.profile is off).
  const QueryProfile& profile() const { return profile_; }
  /// Mutable handle for the plan compiler: operator wrappers above this
  /// leaf register their spans here. Stable for the engine's lifetime.
  QueryProfile* profile_handle() { return &profile_; }
  /// Stamps end-of-execution figures into the profile (root elapsed/actual,
  /// per-strategy costs, context consumption).
  /// Idempotent; called automatically at end of retrieval and on failure,
  /// and by ExplainAnalyze for executions abandoned mid-flight.
  void FinalizeProfile();
  /// The observed race outcome; null when no competition ran (shortcuts,
  /// static tactics, background-only) or profiling is off.
  const CompetitionSample* competition_sample() const {
    return sample_.has_value() ? &*sample_ : nullptr;
  }
  /// The query-class key this execution records under ("" with profiling
  /// off or no profile store attached). See exec/query_class.h.
  const std::string& query_class() const;

 private:
  enum class Mode : uint8_t {
    kSingle,      // one stepper runs alone (Tscan/Sscan/filtered Fscan)
    kBackground,  // the Jscan steps alone, then settles
    kRace,        // foreground + background interleaved
    kFinal,       // the final stage's FetchStepper runs alone
    kDone,
  };

  /// Switches stage and emits the kStageTransition event (Fig 4 edges).
  void EnterMode(Mode mode);
  /// Emits the kCompetitionVerdict event for `verdict`; inside a race it
  /// also samples what each competitor has spent.
  void Decide(Verdict verdict, std::string_view detail = {}, double a = 0,
              double b = 0);
  /// Fills predicted_rows_/predicted_cost_ for the decided tactic.
  void ComputePredictions();
  /// Reports predicted vs actual (once): one ProfileStore::Sample under
  /// the query class, and the raw predictions to the SelectivityModel.
  void RecordFeedback();
  Status DecideTactic();
  /// Brownout mode (ctx_->brownout_pin_strategy(), set by the admission
  /// governor): a competition tactic is replaced by the cheapest *learned*
  /// single strategy for this query class — discovery is exactly the work
  /// a browned-out engine skips. Sorted pins to its ordered foreground
  /// (plain Fscan); other races pin to sscan/tscan by the PR 8 per-strategy
  /// cost account. With no learned account the race runs as usual.
  void MaybePinBrownoutStrategy();
  Status SetUpTactic();
  /// One scheduling quantum; may deliver rows.
  Status Pump();
  Status StepSingle();
  /// One Jscan quantum with no foreground; settles once it is exhausted.
  Status StepBackground();
  Status StepRace();
  /// One Jscan quantum; a fault goes through StrategyFailed.
  Status StepJscan();
  /// The Jscan finished, racing or alone: route per tactic.
  Status OnBackgroundSettled();
  /// One foreground quantum inside the race.
  Status StepForeground();
  /// Charges the context the pages read since meter_ showed `reads`: the
  /// tiny range's probe and a spilled final list's read-back run in no step.
  void ChargePagesReadSince(uint64_t reads) {
    if (ctx_ != nullptr) ctx_->ChargePagesRead(meter_.logical_reads - reads);
  }
  /// Starts the final stage: a FetchStepper over `rids`, page-sorted, that
  /// skips RIDs already delivered.
  Status BeginFinalStage(std::vector<Rid> rids);
  /// The race foreground's accrued cost (0 once it settled into the lone
  /// strategy or a fallback let it go).
  double ForegroundCost() const {
    return fgr_ != nullptr ? fgr_->AccruedCost(db_->cost_weights()) : 0;
  }
  /// Current db-wide repaired-page tally (read-path + pin-path); deltas
  /// over an execution land in the profile's consumption block.
  uint64_t RepairsNow() const;
  /// Makes `span` the span wall-clock time accrues to. Reads the clock only
  /// when the active span *changes* — steady modes (one strategy pumping
  /// thousands of quanta) cost zero clock reads per quantum, which is what
  /// keeps profiling under the bench_profile overhead gate. A null span
  /// stops the accrual (profiling off, or finalize flush).
  void ChargeSpan(ProfileSpan* span);
  /// Records each live strategy's accrued cost in its span: at finalize,
  /// and in FallBackToTscan, where the engine lets strategies go.
  void StampSpanCosts();
  /// True when `st` should degrade this execution (disqualify the faulted
  /// strategy, continue on Tscan) instead of failing it.
  bool CanDegrade(const Status& st) const {
    return fallback_armed_ && !single_is_tscan_ && IsIoFault(st);
  }
  /// The degraded path: when CanDegrade(cause), records the
  /// disqualification of `subject` (trace + metrics) and restarts delivery
  /// on a fresh Tscan (delivered_ filters duplicates); otherwise returns
  /// `cause` unchanged.
  Status FallBackToTscan(std::string subject, const Status& cause);
  /// True for the two FetchSteppers: they read only heap pages, which a
  /// fallback Tscan would read too, and the final stage is no strategy a
  /// brownout can pin.
  bool IsFetch(const ScanStepper* stepper) const {
    return stepper == &final_fetch_ || stepper == &ff_fetch_;
  }
  /// `stepper`'s step failed with `st`: a FetchStepper's fault propagates,
  /// an index strategy's goes through FallBackToTscan.
  Status StrategyFailed(const ScanStepper& stepper, const Status& st) {
    return IsFetch(&stepper) ? st : FallBackToTscan(stepper.label(), st);
  }
  /// Makes `stepper` this execution's Tscan, Fscan or Sscan; returns it.
  ScanStepper* Own(std::unique_ptr<ScanStepper> stepper) {
    owned_ = std::move(stepper);
    return owned_.get();
  }
  /// Makes `stepper` the lone strategy (`mode` kSingle, or kFinal for the
  /// final stage); `span` gets its wall time, row credit and cost.
  void StartSingle(ScanStepper* stepper, ProfileSpan* span,
                   Mode mode = Mode::kSingle);
  /// Starts the last-resort Tscan as the lone strategy.
  void StartTscan();
  /// True while a degraded fallback can still happen — once the last-resort
  /// Tscan is running, or the final stage (which never falls back) has
  /// begun, recording delivered RIDs for fallback dedup is pointless.
  bool FallbackStillPossible() const {
    return fallback_armed_ && !single_is_tscan_ && mode_ != Mode::kFinal &&
           mode_ != Mode::kDone;
  }
  /// Inserts into delivered_, charging each new entry to the context's
  /// RID-list budget so the dedup set cannot bypass the memory ceiling.
  void RememberDelivered(Rid rid);
  /// Error unwind: tears down every stepper and RID list so pins and spill
  /// bytes release now — not when the engine object eventually dies.
  /// Returns `st` for the caller to propagate.
  Status Fail(Status st);
  /// Hands rows `rows` of a stepper batch to the caller: the first ones
  /// into out_ up to its room, the rest into pending_. Remembers their
  /// RIDs for fallback dedup and credits span_rows_, once per batch.
  void Deliver(const RowBatch& src, const std::vector<uint32_t>& rows);
  bool AlreadyDelivered(Rid rid) const {
    return (track_delivered_ || fallback_armed_) && delivered_.count(rid) > 0;
  }

  Database* db_;
  RetrievalSpec spec_;
  RetrievalOptions options_;
  ParamMap params_;

  Tactic tactic_ = Tactic::kUndecided;
  Mode mode_ = Mode::kDone;
  bool delivers_order_ = false;
  AccessPathAnalysis analysis_;
  TraceLog events_;
  std::vector<std::string> previous_order_;
  CostMeter meter_;  // installed while Open() and NextBatch() run
  uint64_t rows_delivered_ = 0;
  double predicted_rows_ = 0;
  double predicted_cost_ = 0;
  double raw_predicted_rows_ = 0;
  double raw_predicted_cost_ = 0;
  bool feedback_recorded_ = false;

  // Learned-selectivity loop (db_->learning(); inert in controlled mode).
  SelectivityModel* learning_ = nullptr;
  std::vector<double> features_;  // QueryClassFeatures(params_), per Open

  std::unique_ptr<Jscan> jscan_;
  std::unique_ptr<ScanStepper> owned_;  // this execution's Tscan/Fscan/Sscan
  ScanStepper* single_ = nullptr;       // kSingle/kFinal stepper
  // The race foreground: the Sorted tactic's Fscan, the Index-Only
  // tactic's Sscan, or ff_fetch_.
  ScanStepper* fgr_ = nullptr;

  QueryContext* ctx_ = nullptr;        // per-execution; set by Open
  bool fallback_armed_ = false;        // ctx_ allows degraded fallback
  bool single_is_tscan_ = false;       // the last-resort strategy is running
  bool brownout_plain_fscan_ = false;  // Sorted pinned to its foreground
  Counter* m_fallbacks_ = nullptr;

  // Profiling state. The span pointers index into profile_'s arena and are
  // reset by Open; span_rows_ is whichever strategy span currently gets
  // credit for enqueued rows.
  QueryProfile profile_;
  ProfileSpan* span_single_ = nullptr;
  ProfileSpan* span_fg_ = nullptr;
  ProfileSpan* span_bg_ = nullptr;
  ProfileSpan* span_competition_ = nullptr;
  ProfileSpan* span_rows_ = nullptr;
  ProfileSpan* charged_span_ = nullptr;  // span currently accruing wall time
  std::chrono::steady_clock::time_point charged_since_;
  bool profile_finished_ = false;
  std::chrono::steady_clock::time_point open_time_;
  std::optional<CompetitionSample> sample_;
  std::string class_prefix_;  // param-independent part of the class key
  std::string class_key_;     // prefix + param suffix, per Open
  ProfileStore* profile_store_ = nullptr;  // db_->profiles(); may be null
  Counter* m_repairs_ = nullptr;           // integrity.repairs
  Counter* m_pin_repairs_ = nullptr;       // integrity.pin_repairs
  uint64_t repairs_at_open_ = 0;

  std::unordered_set<Rid> delivered_;
  bool track_delivered_ = false;
  ExecCounters exec_;
  // The final stage, and the fast-first foreground the engine feeds one
  // borrowed RID per quantum. Both skip delivered_, and both live as long
  // as the engine, so a point lookup allocates no fetch batch.
  FetchStepper final_fetch_;
  FetchStepper ff_fetch_;

  RowBatch* out_ = nullptr;  // the caller's batch during NextBatch
  size_t out_room_ = 0;      // its max_rows
  RowBatch pending_;         // delivered rows past out_room_, dense
  size_t pending_pos_ = 0;   // next pending_ row to hand out
  std::vector<uint32_t> fresh_;  // StepSingle's rows minus already delivered
};

}  // namespace dynopt

#endif  // DYNOPT_CORE_RETRIEVAL_H_
