#include "durability/recovery.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/coding.h"

namespace dynopt {

Status RedoApplier::Apply(const WalRecordView& rec) {
  switch (rec.type) {
    case WalRecordType::kPageImage: {
      if (rec.payload.size() != kPageSize) {
        return Status::Corruption(
            "page image for page " + std::to_string(rec.page) + " at lsn " +
            std::to_string(rec.lsn) + " is " +
            std::to_string(rec.payload.size()) + " bytes, not one page");
      }
      PageData& img = staged_[rec.page];
      std::memcpy(img.data(), rec.payload.data(), kPageSize);
      break;
    }
    case WalRecordType::kCommit: {
      for (auto& [page, img] : staged_) {
        promoted_[page] = img;
        needed_pages_ = std::max<size_t>(needed_pages_, page + 1);
      }
      staged_.clear();
      uint64_t count = 0;
      if (ByteReader(rec.payload).U64(&count)) {
        needed_pages_ = std::max<size_t>(needed_pages_, count);
      }
      last_commit_lsn_ = rec.lsn;
      ++commits_;
      break;
    }
    case WalRecordType::kNote:
      break;
  }
  return Status::OK();
}

Status RedoApplier::WriteTo(FilePageStore* store) const {
  store->EnsureAllocated(needed_pages_);
  for (const auto& [page, img] : promoted_) {
    DYNOPT_RETURN_IF_ERROR(store->Write(page, img));
  }
  return Status::OK();
}

Status RecoverFromWal(FilePageStore* store, Wal* wal, RecoveryStats* stats,
                      MetricsRegistry* metrics,
                      const RecoveryOptions& options) {
  RecoveryStats local;
  RecoveryStats* s = stats != nullptr ? stats : &local;
  *s = RecoveryStats();

  RedoApplier redo(store->page_count());
  uint64_t first_record_lsn = 0;

  // Catch-up archiving: records past the archive's durable end, collected
  // per in-flight transaction and kept only once their commit lands — an
  // uncommitted tail is discarded locally, so it must never be shipped.
  const uint64_t archived = options.archived_durable_lsn;
  std::string catch_up;
  std::string catch_up_pending;
  uint64_t catch_up_records = 0;
  uint64_t catch_up_pending_records = 0;

  WalReplayStats replay_stats;
  Status st = wal->Replay(
      [&](const WalRecordView& rec) -> Status {
        if (first_record_lsn == 0) first_record_lsn = rec.lsn;
        if (options.archive_sink != nullptr && rec.lsn > archived) {
          WalAppendRecord(&catch_up_pending, rec.type, rec.lsn, rec.page,
                          rec.payload);
          ++catch_up_pending_records;
        }
        DYNOPT_RETURN_IF_ERROR(redo.Apply(rec));
        if (rec.type == WalRecordType::kCommit) {
          catch_up.append(catch_up_pending);
          catch_up_records += catch_up_pending_records;
          catch_up_pending.clear();
          catch_up_pending_records = 0;
        }
        return Status::OK();
      },
      &replay_stats);
  DYNOPT_RETURN_IF_ERROR(st);
  s->wal_records = replay_stats.records;
  s->wal_commits = redo.commits();
  s->wal_bytes = replay_stats.bytes;
  // The tear is usually caught (and truncated) by Wal::Open before this
  // replay runs; either sighting counts.
  s->torn_tail = replay_stats.torn_tail || wal->tail_was_torn();

  // Ship the WAL-durable-but-unarchived committed suffix before the log
  // resets; otherwise those commits would survive locally but vanish from
  // the archive's history for good.
  if (options.archive_sink != nullptr && !catch_up.empty()) {
    DYNOPT_RETURN_IF_ERROR(options.archive_sink->AppendDurableBatch(
        catch_up, archived + 1, redo.last_commit_lsn()));
    s->records_rearchived = catch_up_records;
  }

  DYNOPT_RETURN_IF_ERROR(redo.WriteTo(store));
  s->pages_applied = redo.pages();
  DYNOPT_RETURN_IF_ERROR(store->Sync());
  DYNOPT_RETURN_IF_ERROR(store->WriteSuperblock());
  // Restart the LSN sequence right after the last commit: LSNs consumed by
  // a discarded (uncommitted) tail are reused by the next transaction, so
  // the archive's dense sequence continues without a hole.
  uint64_t restart_lsn = redo.last_commit_lsn() > 0
                             ? redo.last_commit_lsn() + 1
                             : first_record_lsn;
  DYNOPT_RETURN_IF_ERROR(wal->Reset(restart_lsn));

  if (metrics != nullptr) {
    Bump(metrics->counter("durability.recoveries"));
    Bump(metrics->counter("durability.recovered_commits"), s->wal_commits);
    Bump(metrics->counter("durability.recovered_pages"), s->pages_applied);
    if (s->records_rearchived > 0) {
      Bump(metrics->counter("replication.records_rearchived"),
           s->records_rearchived);
    }
  }
  return Status::OK();
}

}  // namespace dynopt
