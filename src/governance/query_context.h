// Query governance: cooperative cancellation, deadlines, resource budgets.
//
// A QueryContext travels with one query execution. Steppers and operators
// poll it at batch boundaries (Check()); the first condition that trips —
// an explicit Cancel(), an expired monotonic-clock deadline, or an
// exhausted resource budget — turns every subsequent Check() into the same
// typed error (Cancelled / DeadlineExceeded / BudgetExceeded), which
// unwinds through the normal Status plumbing. Governance is cooperative:
// nothing is torn down from another thread; the query notices at its next
// poll and releases its own pins and spill files on the way out.
//
// Budgets are charged by the components that consume the resource:
// steppers charge pages read, HybridRidList and the engine's degraded-
// fallback dedup set charge in-memory RID bytes, and HybridRidList charges
// (and on destruction releases) spill bytes, one page per temp-table page.
// Pages read and RID bytes are cumulative for the query's lifetime; spill
// bytes track live spill so early unwind returns them.

#ifndef DYNOPT_GOVERNANCE_QUERY_CONTEXT_H_
#define DYNOPT_GOVERNANCE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace dynopt {

struct Counter;
class MetricsRegistry;

/// Resource ceilings for one query; 0 means unlimited.
struct QueryBudgets {
  uint64_t max_pages_read = 0;      ///< logical page accesses
  uint64_t max_rid_list_bytes = 0;  ///< in-memory RID-list bytes (cumulative)
  uint64_t max_spill_bytes = 0;     ///< live temp-spill bytes
};

struct QueryGovernanceOptions {
  /// Wall-clock allowance from construction, monotonic clock; 0 = none.
  uint64_t deadline_micros = 0;
  QueryBudgets budgets;
  /// When true, a permanent I/O fault on an index strategy disqualifies
  /// that strategy and the retrieval falls back to a surviving competitor
  /// (typically Tscan) instead of failing the query.
  bool degraded_fallback = true;
  /// Brownout mode (set by the admission governor under pressure): the
  /// retrieval pins itself to the cheapest *learned* strategy for its query
  /// class instead of racing competitors — skip discovery, spend nothing on
  /// the losers. A class with no learned strategy cost races as usual.
  bool brownout_pin_strategy = false;
};

class QueryContext {
 public:
  /// `registry` may be null; when present, governance.* counters are bumped
  /// once per trip (not per poll).
  explicit QueryContext(QueryGovernanceOptions options = {},
                        MetricsRegistry* registry = nullptr);

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Requests cooperative cancellation. Safe from any thread; the query
  /// observes it at its next Check(), and any WaitInterruptible() in
  /// progress (e.g. a buffer-pool retry backoff) wakes immediately.
  void Cancel();
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Replaces the deadline (monotonic clock). Mostly a test convenience;
  /// production callers set deadline_micros in the options.
  void SetDeadline(std::chrono::steady_clock::time_point deadline);

  /// Polls every governance condition. Once any condition trips, the same
  /// typed error is returned forever (sticky), so callers can poll from
  /// several layers without double-reporting.
  Status Check();

  /// Sleeps up to `micros`, waking early on Cancel(), an earlier trip, or
  /// the query's deadline. Returns OK when the full wait elapsed (the
  /// caller may proceed, e.g. retry a faulted read) and the typed trip
  /// status when governance ended the wait — backoff sleeps become
  /// interruptible instead of running their full course on a dead query.
  Status WaitInterruptible(uint64_t micros);

  /// Revocable-lease support for the admission governor: lowers any
  /// non-zero ceiling in `tighter` that is below (or replaces an unlimited)
  /// current budget. Budgets only ever shrink through this path, so a
  /// charge already checked against the old ceiling re-trips at the next
  /// Check(). Zero fields in `tighter` leave that ceiling alone.
  void TightenBudgets(const QueryBudgets& tighter);
  /// Current (possibly tightened) ceilings.
  QueryBudgets budgets() const;

  // -- budget charging (relaxed atomics; verified at the next Check()) --
  void ChargePagesRead(uint64_t n) {
    pages_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeRidListBytes(uint64_t n) {
    rid_list_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeSpillBytes(uint64_t n) {
    spill_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Spill is a live resource: unwinding queries hand their bytes back.
  void ReleaseSpillBytes(uint64_t n) {
    spill_bytes_.fetch_sub(n, std::memory_order_relaxed);
  }

  uint64_t pages_read() const {
    return pages_read_.load(std::memory_order_relaxed);
  }
  uint64_t rid_list_bytes() const {
    return rid_list_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  bool degraded_fallback_enabled() const {
    return options_.degraded_fallback;
  }
  bool brownout_pin_strategy() const { return options_.brownout_pin_strategy; }
  const QueryGovernanceOptions& options() const { return options_; }

  /// Test hook: the Nth Check() (1-based) trips with `code`, exercising
  /// every poll boundary deterministically. 0 disables.
  void TripAfterPolls(uint64_t n, StatusCode code);

 private:
  Status Trip(StatusCode code, std::string msg);
  Status TrippedStatus() const;

  QueryGovernanceOptions options_;
  // Live ceilings; start at options_.budgets, only shrink (TightenBudgets).
  // Guarded by mu_ — Check() already takes it for the deadline fields.
  QueryBudgets budgets_;
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  // Allowance behind deadline_ for diagnostics: options_.deadline_micros at
  // construction, or the remaining time when SetDeadline replaced it.
  uint64_t deadline_allowance_micros_ = 0;

  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> rid_list_bytes_{0};
  std::atomic<uint64_t> spill_bytes_{0};
  std::atomic<uint64_t> polls_{0};

  uint64_t trip_after_polls_ = 0;
  StatusCode trip_code_ = StatusCode::kCancelled;

  // kOk until tripped; the message is written once under mu_ before the
  // code is published, so readers that see a non-OK code see the message.
  std::atomic<StatusCode> tripped_{StatusCode::kOk};
  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled by Cancel() and Trip()
  std::string trip_message_;

  Counter* m_cancellations_ = nullptr;
  Counter* m_deadline_hits_ = nullptr;
  Counter* m_budget_hits_ = nullptr;
};

/// True for the error codes a faulty device produces on the read path —
/// the conditions that can disqualify a retrieval strategy.
inline bool IsIoFault(const Status& s) {
  return s.IsIOError() || s.IsCorruption();
}

/// Global token bucket capping how many queries may sit in fault-retry
/// backoff at once. Without it, a slow or flapping device turns every
/// pinned session into a synchronized retry storm; with it, a query that
/// cannot get a token fails its pin typed immediately (and degrades or
/// falls back) instead of dogpiling. Attached to the BufferPool by the
/// admission governor; a pool without one keeps the PR 4 behavior.
class RetryBudget {
 public:
  explicit RetryBudget(uint32_t tokens) : tokens_(static_cast<int32_t>(tokens)) {}

  bool TryAcquire() {
    int32_t cur = tokens_.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (tokens_.compare_exchange_weak(cur, cur - 1,
                                        std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }
  void Release() { tokens_.fetch_add(1, std::memory_order_acq_rel); }
  int32_t available() const { return tokens_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int32_t> tokens_;
};

/// The context governing the query running on this thread, or null. Deep
/// layers with no QueryContext parameter (the buffer pool's retry backoff)
/// consult it so their waits become interruptible. Scoped, re-entrant, and
/// strictly thread-local: DynamicRetrieval installs it around Open()/Next().
QueryContext* CurrentQueryContext();

class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* prev_;
};

}  // namespace dynopt

#endif  // DYNOPT_GOVERNANCE_QUERY_CONTEXT_H_
