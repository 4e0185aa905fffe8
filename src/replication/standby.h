// Log-shipped warm standby: a database opened read-only over its own
// FilePageStore that continuously applies archived redo and serves
// snapshot-consistent retrievals at its applied LSN.
//
// Apply pipeline (exclusive lock): parse a delivered segment, stage page
// images per transaction, promote at each commit (recovery's
// RedoApplier), write the promoted images to the standby's store, fsync,
// stamp {timeline, applied LSN} into the superblock, drop the buffer
// pool's now-stale cache, and reload the catalog. Readers take the lock
// shared, so every retrieval — full dynamic competition included — sees
// one applied LSN's state from its first page to its last.
//
// Idempotency: redo images are full post-images and the superblock's
// replay_lsn advances only after they are durable, so any delivery — a
// duplicate segment, a partial redelivery after a torn transport, a
// re-apply after the standby itself crashed mid-batch — either lands
// exactly once or is skipped. Gap, torn-sealed-segment, and truncated
// deliveries fail typed naming the offending segment; nothing partial is
// ever exposed to readers.
//
// Mutation guard rails: the inner database is read-only — CreateTable /
// Commit / Checkpoint fail typed, and the pool refuses page allocation, so
// the store's page watermark moves only through applied redo. A reader's
// spilled RID list keeps its overflow in the list and takes no page.
//
// Promote() turns the standby into the new primary: final catch-up from
// the archive, fence the old timeline in the manifest (stale-primary
// appends then fail typed Fenced), truncate never-acknowledged records
// past the applied LSN, stamp the new timeline into the superblock. The
// promoted file then opens as an ordinary primary (Database::Open with
// the same archive), continuing the LSN sequence at applied + 1.

#ifndef DYNOPT_REPLICATION_STANDBY_H_
#define DYNOPT_REPLICATION_STANDBY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "catalog/database.h"
#include "durability/crash.h"
#include "obs/trace.h"
#include "replication/archive.h"
#include "util/status.h"

namespace dynopt {

struct StandbyOptions {
  /// The standby's own database file (its replica of the primary's).
  std::string path;
  size_t pool_pages = 1024;
  bool observability = true;
  /// Standby-side crash points (kStandbyApplySegment,
  /// kPromoteBeforeSuperblock); not owned, may be null.
  CrashController* crash = nullptr;
};

struct StandbyPromotion {
  uint64_t new_timeline = 0;
  uint64_t applied_lsn = 0;  // the promoted primary's history ends here
};

class StandbyDatabase {
 public:
  /// Opens (creating if absent) the standby file and resumes from its
  /// superblock: applied LSN = replay_lsn, timeline as stamped. A fresh
  /// standby starts at LSN 0 on timeline 1 and builds itself purely from
  /// applied redo.
  static Result<std::unique_ptr<StandbyDatabase>> Open(
      StandbyOptions options, std::string archive_dir);

  /// Highest commit LSN durably applied (readers see exactly this state).
  uint64_t applied_lsn() const {
    return applied_.load(std::memory_order_acquire);
  }
  uint64_t timeline() const {
    return timeline_.load(std::memory_order_acquire);
  }

  /// Applies one delivered segment (header + raw WAL records, the bytes a
  /// WalArchiveReader returns). `sealed` + `expected_end_lsn` come from
  /// the manifest entry (0 = unsealed tail, whose valid prefix is
  /// authoritative and whose tear is clean). `label` names the segment in
  /// typed errors, metrics, and the trace.
  ///
  ///  - whole segment at or below applied      -> idempotent no-op (counted)
  ///  - starts past applied + 1                -> InvalidArgument (gap)
  ///  - sealed but torn / failing checksums    -> Corruption naming label
  ///  - sealed but short of expected_end_lsn   -> Corruption naming label
  Status ApplySegmentBytes(std::string_view bytes, bool sealed,
                           uint64_t expected_end_lsn, std::string_view label);

  /// Applies everything the archive durably holds, reading it directly
  /// (no transport, no faults). Returns the applied LSN afterwards.
  Result<uint64_t> CatchUp();

  /// A snapshot-consistent read view: holds the apply lock shared, so the
  /// applied LSN (and every page behind it) is frozen while this exists.
  /// Run retrievals against db(); drop the view promptly — apply waits.
  class ReadView {
   public:
    Database* db() const { return db_; }
    uint64_t lsn() const { return lsn_; }

   private:
    friend class StandbyDatabase;
    ReadView(std::shared_lock<std::shared_mutex> lock, Database* db,
             uint64_t lsn)
        : lock_(std::move(lock)), db_(db), lsn_(lsn) {}
    std::shared_lock<std::shared_mutex> lock_;
    Database* db_;
    uint64_t lsn_;
  };
  /// Fails typed (NotFound) until the first commit has been applied (an
  /// empty standby has no catalog to query).
  Result<ReadView> BeginRead();

  /// Failover: catch up, fence the archive onto timeline + 1, stamp the
  /// superblock. Idempotent across a crash at kPromoteBeforeSuperblock —
  /// rerunning finishes the promote. After success the standby file is
  /// the primary; open it with Database::Open({path, archive_dir}).
  Result<StandbyPromotion> Promote();

  /// replication.* counters live here; null when observability is off.
  MetricsRegistry* metrics() { return db_->metrics(); }
  /// Standby decision log: kSegmentApplied / kStandbyPromoted events.
  TraceLog* trace() { return &trace_; }
  /// The standby's store (test support: page-level comparisons).
  FilePageStore* store() { return store_; }
  const std::string& path() const { return options_.path; }

 private:
  StandbyDatabase() = default;

  StandbyOptions options_;
  std::string archive_dir_;
  std::unique_ptr<WalArchiveReader> reader_;
  std::unique_ptr<Database> db_;  // in-memory-mode engine over store_
  FilePageStore* store_ = nullptr;  // owned by db_
  TraceLog trace_;

  /// Exclusive for apply/promote; shared for ReadView.
  std::shared_mutex apply_mu_;
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> timeline_{1};
  bool catalog_loaded_ = false;

  Counter* m_segments_applied_ = nullptr;
  Counter* m_commits_applied_ = nullptr;
  Counter* m_pages_applied_ = nullptr;
  Counter* m_duplicate_segments_ = nullptr;
  Counter* m_corrupt_deliveries_ = nullptr;
  Counter* m_promotions_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_REPLICATION_STANDBY_H_
