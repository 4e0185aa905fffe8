// Per-query span profiles — the execution's own account of where the time
// went and what it believed beforehand.
//
// A QueryProfile is a small tree of spans assembled alongside one retrieval
// execution: the query root, an optional competition node, one strategy
// node per competitor, and one operator node per plan operator above the
// retrieval leaf. Each span pairs monotonic wall time with the estimate the
// optimizer held going in and the actuals the execution produced — the
// estimate-vs-actual delta the learned-selectivity loop feeds on. A profile
// records what the execution measured; what it decided (tactic, verdicts,
// per-index Jscan outcomes, disqualifications) lives in its event log
// (obs/trace.h), which EXPLAIN ANALYZE prints above the profile.
//
// Cheapness is structural: spans live in a deque arena owned by the
// profile (stable pointers, no per-span allocation churn), the engine
// reads the clock only when span ownership changes (charge-on-switch in
// DynamicRetrieval::ChargeSpan — steady modes cost zero clock reads per
// quantum), and when profiling is off every instrumentation site is a
// null-pointer branch.

#ifndef DYNOPT_OBS_PROFILE_H_
#define DYNOPT_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace dynopt {

enum class SpanKind : uint8_t {
  kQuery,        // the whole execution (root)
  kCompetition,  // a race between strategies (Fig 4 dynamic modes)
  kStrategy,     // one access strategy (tscan/sscan/fscan/jscan/final-fetch)
  kOperator,     // a plan operator above the retrieval leaf (sort/limit/...)
};

std::string_view SpanKindName(SpanKind kind);

struct ProfileSpan {
  SpanKind kind = SpanKind::kQuery;
  std::string name;  // query/race/strategy/operator name
  /// Monotonic wall time attributed to this span (inclusive of children).
  double elapsed_micros = 0;
  /// What the optimizer predicted going in; -1 = no estimate held.
  double estimated_rows = -1;
  double estimated_cost = -1;
  /// What the execution actually produced/charged.
  uint64_t actual_rows = 0;
  double actual_cost = 0;
  std::vector<ProfileSpan*> children;
};

/// QueryContext / engine consumption folded into the profile at finalize:
/// the governance-and-repair side of "what did this query cost us".
struct ProfileConsumption {
  bool governed = false;
  uint64_t pages_read = 0;
  uint64_t rid_list_bytes = 0;
  uint64_t spill_bytes = 0;
  uint64_t polls = 0;
  uint64_t pages_repaired = 0;  // db-wide repair delta over the query
};

/// One execution's span tree. Begin() arms it; with no Begin() (profiling
/// disabled) every accessor degrades to "no spans" and AddSpan returns
/// null, which SpanTimer and the attribution sites treat as "do nothing".
class QueryProfile {
 public:
  /// Starts a fresh profile rooted at a kQuery span named `name`.
  void Begin(std::string_view name);
  /// Drops all spans; active() becomes false until the next Begin().
  void Clear();

  bool active() const { return root_ != nullptr; }
  ProfileSpan* root() { return root_; }
  const ProfileSpan* root() const { return root_; }
  size_t span_count() const { return arena_.size(); }

  /// Adds a child span under `parent`; null parent (or inactive profile)
  /// returns null so call sites need no guards.
  ProfileSpan* AddSpan(ProfileSpan* parent, SpanKind kind,
                       std::string_view name);

  /// Registers a plan-operator span. Operators register leaf-to-root as
  /// their Opens unwind, so each new operator span adopts the previous one
  /// as its child — the tree ends up in executed-plan shape
  /// (root → outermost operator → ... → innermost).
  ProfileSpan* AddOperatorSpan(std::string_view name);

  void set_consumption(const ProfileConsumption& c) { consumption_ = c; }
  const ProfileConsumption& consumption() const { return consumption_; }

  /// ASCII tree (timings, est vs actual), newline-terminated.
  std::string RenderTree() const;
  std::string ToJson() const;

 private:
  std::deque<ProfileSpan> arena_;  // stable addresses under growth
  ProfileSpan* root_ = nullptr;
  ProfileSpan* last_operator_ = nullptr;
  ProfileConsumption consumption_;
};

/// RAII: accumulates elapsed monotonic time into `span`; a null span costs
/// one branch and zero clock reads.
class SpanTimer {
 public:
  explicit SpanTimer(ProfileSpan* span)
      : span_(span),
        start_(span != nullptr ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point()) {}
  ~SpanTimer() {
    if (span_ != nullptr) {
      span_->elapsed_micros += std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start_)
                                   .count();
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  ProfileSpan* span_;
  std::chrono::steady_clock::time_point start_;
};

/// Renders the profile (span tree + consumption) as a JSON object into an
/// in-progress writer, for embedding in the EXPLAIN ANALYZE export.
void WriteProfile(JsonWriter* w, const QueryProfile& profile);

}  // namespace dynopt

#endif  // DYNOPT_OBS_PROFILE_H_
