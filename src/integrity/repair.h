// WAL-based self-healing of corrupt pages.
//
// A checksummed frame that fails verification is not the end of the page:
// under the WAL-before-data rule, any page image that ever reached the
// data file belongs to a transaction whose images are fully durable in
// the log's stable prefix. WalPageRepairer exploits that — when the
// buffer pool's read path hits Corruption, it scans the WAL for the
// newest committed image of the page (targeted redo of a single page),
// hands the rebuilt frame back to the pool, and heals the store copy in
// place so later cold reads succeed without another scan.
//
// Pages with no committed image in the log — media decay after a
// checkpoint (which resets the WAL), or a frame that was never valid —
// are *quarantined*: the repairer remembers the page and fails every
// later repair attempt immediately with a typed Corruption error, so the
// query layer degrades (index strategies disqualify and fall back to
// Tscan per the governance rules) instead of crashing or thrashing the
// log with rescans.
//
// Thread safety: Repair() may be called concurrently from many pinning
// threads. Concurrent Commit() appends are safe to race (a half-appended
// batch parses as a torn tail and is ignored); checkpoints — which Reset
// the WAL — own the engine and never run concurrently with queries.

#ifndef DYNOPT_INTEGRITY_REPAIR_H_
#define DYNOPT_INTEGRITY_REPAIR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "durability/wal.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace dynopt {

class WalPageRepairer : public PageRepairer {
 public:
  /// `store` and `wal` are not owned and must outlive the repairer.
  /// `registry` (optional) receives integrity.repairs / .quarantined /
  /// .heal_failures counters.
  WalPageRepairer(PageStore* store, Wal* wal,
                  MetricsRegistry* registry = nullptr);

  /// Rebuilds page `id` from the newest committed WAL image. On success
  /// fills `*out` and best-effort heals the store copy. Otherwise the
  /// page joins the quarantine set and a typed Corruption naming the
  /// quarantine (with `cause` as context) is returned — and every later
  /// attempt on that page short-circuits to the same verdict.
  Status Repair(PageId id, const Status& cause, PageData* out) override;

  uint64_t repairs() const { return repairs_.load(std::memory_order_relaxed); }
  uint64_t quarantined_count() const;
  bool IsQuarantined(PageId id) const;

 private:
  Status Quarantine(PageId id, const Status& cause);

  PageStore* store_;
  Wal* wal_;
  std::atomic<uint64_t> repairs_{0};

  mutable std::mutex mu_;
  std::unordered_set<PageId> quarantined_;

  Counter* m_repairs_ = nullptr;
  Counter* m_quarantined_ = nullptr;
  Counter* m_heal_failures_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_INTEGRITY_REPAIR_H_
