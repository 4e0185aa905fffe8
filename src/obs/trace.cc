#include "obs/trace.h"

#include <sstream>

namespace dynopt {

std::string_view TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAnalysis:
      return "analysis";
    case TraceEventKind::kShortcut:
      return "shortcut";
    case TraceEventKind::kTacticChosen:
      return "tactic-chosen";
    case TraceEventKind::kStageTransition:
      return "stage-transition";
    case TraceEventKind::kCompetitionVerdict:
      return "competition-verdict";
    case TraceEventKind::kJscanIndexOutcome:
      return "jscan-index-outcome";
    case TraceEventKind::kStrategyDisqualified:
      return "strategy-disqualified";
    case TraceEventKind::kScrubPass:
      return "scrub-pass";
    case TraceEventKind::kPageRepaired:
      return "page-repaired";
    case TraceEventKind::kPageQuarantined:
      return "page-quarantined";
    case TraceEventKind::kIntegrityFinding:
      return "integrity-finding";
    case TraceEventKind::kLearnedCorrectionApplied:
      return "learned-correction-applied";
    case TraceEventKind::kAdmissionQueued:
      return "admission-queued";
    case TraceEventKind::kQueryShed:
      return "query-shed";
    case TraceEventKind::kBrownoutStep:
      return "brownout-step";
    case TraceEventKind::kSegmentApplied:
      return "segment-applied";
    case TraceEventKind::kStandbyPromoted:
      return "standby-promoted";
  }
  return "?";
}

const TraceEvent& TraceLog::Emit(TraceEventKind kind, std::string subject,
                                 std::string detail, double a, double b) {
  events_.push_back(TraceEvent{next_seq_++, kind, std::move(subject),
                               std::move(detail), a, b});
  emitted_[static_cast<size_t>(kind)]++;
  EvictOverCapacity();
  return events_.back();
}

void TraceLog::set_capacity(size_t capacity) {
  capacity_ = capacity;
  EvictOverCapacity();
}

void TraceLog::EvictOverCapacity() {
  if (capacity_ == 0) return;
  while (events_.size() > capacity_) {
    events_.pop_front();
    dropped_++;
  }
}

void TraceLog::Clear() {
  events_.clear();
  next_seq_ = 0;
  dropped_ = 0;
  emitted_.fill(0);
}

const TraceEvent* TraceLog::Find(TraceEventKind kind,
                                 std::string_view subject) const {
  for (const TraceEvent& e : events_) {
    if (e.kind == kind && e.subject == subject) return &e;
  }
  return nullptr;
}

size_t TraceLog::CountKind(TraceEventKind kind) const {
  size_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) n++;
  }
  return n;
}

std::vector<std::string> TraceLog::Subjects(TraceEventKind kind) const {
  std::vector<std::string> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) out.push_back(e.subject);
  }
  return out;
}

void WriteTraceEvents(JsonWriter* w, const TraceLog& log) {
  w->BeginArray();
  for (const TraceEvent& e : log.events()) {
    w->BeginObject();
    w->KV("seq", e.seq);
    w->KV("kind", TraceEventKindName(e.kind));
    w->KV("subject", e.subject);
    if (!e.detail.empty()) w->KV("detail", e.detail);
    w->KV("a", e.a);
    w->KV("b", e.b);
    w->EndObject();
  }
  w->EndArray();
}

std::string FormatTraceEvent(const TraceEvent& event) {
  std::ostringstream os;
  os << TraceEventKindName(event.kind) << " " << event.subject;
  if (!event.detail.empty()) os << ": " << event.detail;
  if (event.a != 0) os << " a=" << event.a;
  if (event.b != 0) os << " b=" << event.b;
  return os.str();
}

std::string TraceLog::ToJson() const {
  JsonWriter w;
  WriteTraceEvents(&w, *this);
  return w.str();
}

}  // namespace dynopt
