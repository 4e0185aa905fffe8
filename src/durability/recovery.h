// Redo recovery: replays the WAL's committed page images into the data
// file at open time.
//
// The engine never writes an uncommitted dirty page to the data file (the
// BufferPool's WAL-ordering gate), so recovery is pure redo: scan the
// log's valid prefix, stage each page image, and at every commit record
// promote the staged images to "apply". Images past the last complete
// commit (including a torn tail) are discarded — that transaction never
// happened. Applying is idempotent: images are full post-images, so a
// crash during recovery just replays again.
//
// Commit payload convention: a Database commit record's payload begins
// with the u64 allocated-page count at commit time, letting recovery
// restore pages that were allocated but never written (they have no
// image — they are zeroed by definition).
//
// Recovery ends with a checkpoint: data file synced, superblock bumped,
// WAL reset — so a reopened database starts with an empty log.
//
// The staging itself is RedoApplier, which the warm standby
// (replication/standby.h) and point-in-time restore (replication/
// restore.h) run over archived segments too.

#ifndef DYNOPT_DURABILITY_RECOVERY_H_
#define DYNOPT_DURABILITY_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "durability/file_page_store.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace dynopt {

/// Stage-then-commit redo over a stream of WAL records. Page images are
/// staged per transaction; a commit record promotes them, raises the
/// allocation watermark from its payload (see the payload convention
/// above) and becomes the last commit LSN. Images with no commit after
/// them are never promoted. Later commits overwrite earlier images of the
/// same page, so the promoted set is the newest committed post-image of
/// every logged page. Callers apply their own LSN filter before Apply.
class RedoApplier {
 public:
  /// `page_count`: the target store's allocated pages before redo.
  explicit RedoApplier(size_t page_count) : needed_pages_(page_count) {}

  /// Feeds the next record. Corruption for a page image that is not
  /// exactly one page.
  Status Apply(const WalRecordView& rec);

  /// Allocates through the watermark and writes every promoted image to
  /// `store`. Does not sync.
  Status WriteTo(FilePageStore* store) const;

  /// 0 until a commit record has been applied.
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }
  uint64_t commits() const { return commits_; }
  /// Distinct pages promoted.
  size_t pages() const { return promoted_.size(); }

 private:
  std::unordered_map<PageId, PageData> staged_;
  std::unordered_map<PageId, PageData> promoted_;
  size_t needed_pages_ = 0;
  uint64_t last_commit_lsn_ = 0;
  uint64_t commits_ = 0;
};

struct RecoveryStats {
  uint64_t wal_records = 0;
  uint64_t wal_commits = 0;  // complete commits applied
  uint64_t wal_bytes = 0;    // valid WAL bytes scanned
  uint64_t pages_applied = 0;  // distinct pages rewritten from images
  bool torn_tail = false;      // the log ended in a torn/incomplete record
  /// Committed records that were WAL-durable but missing from the archive
  /// (crash between the WAL fsync and the archive append) and were
  /// re-appended during recovery — see RecoveryOptions::archive_sink.
  uint64_t records_rearchived = 0;
};

/// Archive coupling for archived databases (both fields default to "no
/// archive attached").
struct RecoveryOptions {
  /// Highest LSN the archive holds durably (sealed segments + the valid
  /// tail of the unsealed current segment). A WAL end-of-log tear is only
  /// benign when it lies strictly beyond this; a mismatch at or below the
  /// archive's *sealed* floor is refused earlier, by Wal::Open (see
  /// WalOptions::sealed_floor_lsn).
  uint64_t archived_durable_lsn = 0;
  /// When set, the committed suffix the WAL holds beyond
  /// archived_durable_lsn is re-appended here before the log resets. A
  /// crash can land between the WAL fsync and the archive append, leaving
  /// a commit locally durable but unshipped; without this catch-up the
  /// archive would diverge from the primary forever.
  WalSink* archive_sink = nullptr;
};

/// Replays `wal` into `store` (see file comment), then checkpoints:
/// store->Sync(), store->WriteSuperblock(), wal->Reset(). With `metrics`,
/// bumps durability.recoveries / durability.recovered_commits /
/// durability.recovered_pages.
Status RecoverFromWal(FilePageStore* store, Wal* wal, RecoveryStats* stats,
                      MetricsRegistry* metrics = nullptr,
                      const RecoveryOptions& options = RecoveryOptions());

}  // namespace dynopt

#endif  // DYNOPT_DURABILITY_RECOVERY_H_
