// Typed trace events — the machine-readable decision log.
//
// The paper's engine "watches itself run": every tactic choice, shortcut,
// competition verdict, and stage transition is an observable decision. This
// log is the engine's one record of them: typed events with a kind enum and
// structured fields, so tests assert on event kinds instead of substring
// fishing, exporters render them as JSON, and EXPLAIN renders each as one
// line (FormatTraceEvent).
//
// Events carry monotonic per-log sequence numbers instead of timestamps:
// runs stay bit-deterministic, and ordering (the Fig 4 state machine) is
// still fully reconstructible.
//
// A workload-wide log (the admission controller's, the standby's) is a
// bounded ring: past `capacity()` the oldest events drop and are tallied,
// so a long-running workload cannot grow a trace without bound. Lifetime
// kind tallies (`EmittedCount`) survive eviction, so decision counts stay
// exact even after wraparound. A retrieval execution emits a bounded
// number of events, so its log keeps every one (capacity 0).

#ifndef DYNOPT_OBS_TRACE_H_
#define DYNOPT_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace dynopt {

enum class TraceEventKind : uint8_t {
  kAnalysis,           // initial stage done; a = estimation pages, b = #indexes
  kShortcut,           // OLTP shortcut taken; subject = "empty-range"/"tiny-range"
  kTacticChosen,       // subject = tactic name
  kStageTransition,    // subject = entered stage ("race", "final", "done", ...)
  kCompetitionVerdict, // a run-time decision; subject = verdict tag
  kJscanIndexOutcome,  // subject = index name; detail = outcome kind;
                       // a = entries scanned, b = kept
  kStrategyDisqualified,  // subject = strategy; detail = reason (io_fault...)
  kScrubPass,          // subject = "pass"; a = pages scanned, b = corrupt
  kPageRepaired,       // subject = page id; a = page id
  kPageQuarantined,    // subject = page id; a = page id; detail = cause
  kIntegrityFinding,   // subject = finding kind; a = page id; detail = text
  kLearnedCorrectionApplied,  // subject = "estimate"/"competition"; a =
                              // corrected rows or cost, b = raw value
  kAdmissionQueued,    // subject = "wait"; a = queue depth after enqueue
  kQueryShed,          // subject = shed reason; a = queue depth at shed
  kBrownoutStep,       // subject = "down"/"up"; a = new level, b = pressure
  kSegmentApplied,     // subject = segment label; a = applied lsn, b = commits
  kStandbyPromoted,    // subject = "promote"; a = new timeline, b = applied lsn
};

std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  uint64_t seq = 0;  // monotonic within one log; deterministic, not a clock
  TraceEventKind kind = TraceEventKind::kAnalysis;
  std::string subject;  // the decision's object (tactic/stage/index/verdict)
  std::string detail;   // human-readable supplement; never asserted on
  double a = 0;         // kind-specific figures (see kind comments)
  double b = 0;
};

/// Bounded event log (ring buffer past `capacity()`). One log per retrieval
/// execution (cleared on re-Open), or one per workload when aggregating.
class TraceLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  const TraceEvent& Emit(TraceEventKind kind, std::string subject,
                         std::string detail = std::string(), double a = 0,
                         double b = 0);

  const std::deque<TraceEvent>& events() const { return events_; }
  void Clear();

  /// Retention limit; 0 keeps everything. Shrinking evicts (and counts)
  /// the oldest events immediately. Tests pin this for determinism.
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }
  /// Events evicted by the ring since the last Clear().
  uint64_t dropped() const { return dropped_; }

  bool Contains(TraceEventKind kind, std::string_view subject) const {
    return Find(kind, subject) != nullptr;
  }
  /// First event of `kind` whose subject equals `subject`; null if absent.
  const TraceEvent* Find(TraceEventKind kind, std::string_view subject) const;
  /// Subjects of all events of `kind`, in emission order.
  std::vector<std::string> Subjects(TraceEventKind kind) const;
  /// Number of events of `kind` currently retained, any subject.
  size_t CountKind(TraceEventKind kind) const;
  /// Number of events of `kind` ever emitted since Clear() — unlike
  /// CountKind this survives ring eviction.
  uint64_t EmittedCount(TraceEventKind kind) const {
    return emitted_[static_cast<size_t>(kind)];
  }

  std::string ToJson() const;

 private:
  void EvictOverCapacity();

  std::deque<TraceEvent> events_;
  uint64_t next_seq_ = 0;
  size_t capacity_ = kDefaultCapacity;
  uint64_t dropped_ = 0;
  std::array<uint64_t, 32> emitted_{};  // lifetime tallies, indexed by kind
};

/// Renders the log as a JSON array into an in-progress writer (for
/// embedding inside larger documents, e.g. the EXPLAIN export).
void WriteTraceEvents(JsonWriter* w, const TraceLog& log);

/// One event as a human-readable line: kind, subject, ": detail" when
/// present, then " a=" and " b=" when nonzero (the EXPLAIN decision trace).
std::string FormatTraceEvent(const TraceEvent& event);

}  // namespace dynopt

#endif  // DYNOPT_OBS_TRACE_H_
