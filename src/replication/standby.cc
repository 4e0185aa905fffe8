#include "replication/standby.h"

#include <unistd.h>

#include "durability/recovery.h"

namespace dynopt {

Result<std::unique_ptr<StandbyDatabase>> StandbyDatabase::Open(
    StandbyOptions options, std::string archive_dir) {
  if (options.path.empty()) {
    return Status::InvalidArgument("StandbyDatabase::Open needs a path");
  }
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(options.path, options.crash));
  FilePageStore* raw_store = store.get();

  DatabaseOptions inner;
  inner.pool_pages = options.pool_pages;
  inner.observability = options.observability;
  // The two-argument constructor builds the in-memory-mode engine over our
  // file store: no WAL, no repairer, Commit/Checkpoint inert — the standby
  // mutates pages only through applied redo, never through the engine.
  std::unique_ptr<StandbyDatabase> standby(new StandbyDatabase());
  standby->options_ = std::move(options);
  standby->archive_dir_ = std::move(archive_dir);
  standby->reader_ = std::make_unique<WalArchiveReader>(standby->archive_dir_);
  standby->db_ = std::make_unique<Database>(std::move(inner), std::move(store));
  standby->db_->SetReadOnly(true);
  standby->store_ = raw_store;

  Superblock super = raw_store->superblock();
  standby->applied_.store(super.replay_lsn, std::memory_order_release);
  standby->timeline_.store(super.timeline, std::memory_order_release);
  if (raw_store->page_count() > 0 && super.replay_lsn > 0) {
    DYNOPT_RETURN_IF_ERROR(standby->db_->ReloadCatalog());
    standby->catalog_loaded_ = true;
  }

  if (MetricsRegistry* registry = standby->db_->metrics()) {
    standby->m_segments_applied_ =
        registry->counter("replication.segments_applied");
    standby->m_commits_applied_ =
        registry->counter("replication.commits_applied");
    standby->m_pages_applied_ = registry->counter("replication.pages_applied");
    standby->m_duplicate_segments_ =
        registry->counter("replication.duplicate_segments");
    standby->m_corrupt_deliveries_ =
        registry->counter("replication.corrupt_deliveries");
    standby->m_promotions_ = registry->counter("replication.promotions");
    registry->Set("replication.applied_lsn", super.replay_lsn);
  }
  return standby;
}

Status StandbyDatabase::ApplySegmentBytes(std::string_view bytes, bool sealed,
                                          uint64_t expected_end_lsn,
                                          std::string_view label) {
  if (options_.crash != nullptr && options_.crash->crashed()) {
    return Status::IOError("simulated crash: standby is offline");
  }
  std::string name(label);
  if (bytes.size() < kArchiveSegmentHeaderSize) {
    if (sealed) {
      Bump(m_corrupt_deliveries_);
      return Status::Corruption("sealed segment " + name +
                                " delivered short of its header");
    }
    return Status::OK();  // an empty/torn-header tail holds nothing durable
  }
  uint64_t start_lsn = 0;
  Status header = ParseArchiveSegmentHeader(bytes, nullptr, &start_lsn);
  if (!header.ok()) {
    if (sealed) {
      Bump(m_corrupt_deliveries_);
      return Status::Corruption("sealed segment " + name + ": " +
                                header.message());
    }
    return Status::OK();  // garbage unsealed tail: await redelivery
  }

  std::unique_lock<std::shared_mutex> lock(apply_mu_);
  uint64_t applied = applied_.load(std::memory_order_relaxed);
  if (expected_end_lsn > 0 && expected_end_lsn <= applied) {
    Bump(m_duplicate_segments_);  // whole segment already applied
    return Status::OK();
  }
  if (start_lsn > applied + 1) {
    return Status::InvalidArgument(
        "archive delivery gap: standby applied through lsn " +
        std::to_string(applied) + " but segment " + name +
        " starts at lsn " + std::to_string(start_lsn));
  }

  // Stage→promote over the delivered records, skipping everything at or
  // below the applied LSN (applied always sits on a commit boundary, so
  // the skip drops whole transactions — redelivery is idempotent).
  RedoApplier redo(store_->page_count());
  uint64_t records_total = 0;
  bool torn = false;
  Status scan = WalScanRecords(
      bytes.substr(kArchiveSegmentHeaderSize), start_lsn,
      [&](const WalRecordView& rec) -> Status {
        ++records_total;
        if (rec.lsn <= applied) return Status::OK();
        Status st = redo.Apply(rec);
        if (!st.ok()) {
          return Status::Corruption("segment " + name + ": " + st.message());
        }
        return Status::OK();
      },
      nullptr, &torn);
  if (!scan.ok()) {
    Bump(m_corrupt_deliveries_);
    return scan;
  }
  uint64_t delivered_end = start_lsn + records_total - 1;
  if (sealed && torn) {
    Bump(m_corrupt_deliveries_);
    return Status::Corruption(
        "sealed segment " + name + " is torn: checksum-invalid bytes at lsn " +
        std::to_string(records_total > 0 ? delivered_end + 1 : start_lsn) +
        " inside sealed history");
  }
  if (sealed && expected_end_lsn > 0 &&
      (records_total == 0 || delivered_end < expected_end_lsn)) {
    Bump(m_corrupt_deliveries_);
    return Status::Corruption(
        "sealed segment " + name + " truncated: delivers through lsn " +
        std::to_string(records_total > 0 ? delivered_end : start_lsn - 1) +
        " but the manifest seals it through lsn " +
        std::to_string(expected_end_lsn));
  }
  // An unsealed tail's torn suffix (and any trailing uncommitted
  // transaction) is simply not applied yet; redelivery will bring it.
  const uint64_t last_commit = redo.last_commit_lsn();
  if (last_commit == 0) return Status::OK();

  DYNOPT_RETURN_IF_ERROR(redo.WriteTo(store_));
  // Crash here (pages written, superblock not advanced): reopen resumes
  // from the old applied LSN and re-applies the same full post-images.
  DYNOPT_RETURN_IF_ERROR(
      CrashHit(options_.crash, CrashPoint::kStandbyApplySegment));
  DYNOPT_RETURN_IF_ERROR(store_->Sync());
  store_->SetReplicationState(timeline_.load(std::memory_order_relaxed),
                              last_commit);
  DYNOPT_RETURN_IF_ERROR(store_->WriteSuperblock());

  // Readers are out (we hold the lock exclusive): drop every cached page
  // and rebind the catalog to the new applied state.
  DYNOPT_RETURN_IF_ERROR(db_->pool()->EvictAll());
  DYNOPT_RETURN_IF_ERROR(db_->ReloadCatalog());
  catalog_loaded_ = true;
  applied_.store(last_commit, std::memory_order_release);

  Bump(m_segments_applied_);
  Bump(m_commits_applied_, redo.commits());
  Bump(m_pages_applied_, redo.pages());
  if (MetricsRegistry* registry = db_->metrics()) {
    registry->Set("replication.applied_lsn", last_commit);
  }
  trace_.Emit(TraceEventKind::kSegmentApplied, std::move(name), std::string(),
              static_cast<double>(last_commit),
              static_cast<double>(redo.commits()));
  return Status::OK();
}

Result<uint64_t> StandbyDatabase::CatchUp() {
  DYNOPT_ASSIGN_OR_RETURN(ArchiveManifest manifest, reader_->ReadManifest());
  for (const ArchiveSegmentInfo& seg : manifest.segments) {
    if (seg.end_lsn <= applied_lsn()) continue;
    DYNOPT_ASSIGN_OR_RETURN(std::string bytes,
                            reader_->ReadSealedSegment(manifest, seg));
    DYNOPT_RETURN_IF_ERROR(ApplySegmentBytes(
        bytes, /*sealed=*/true, seg.end_lsn,
        ArchiveSegmentLabel(seg.start_lsn, seg.end_lsn, manifest.timeline)));
  }
  DYNOPT_ASSIGN_OR_RETURN(std::string tail, reader_->ReadCurrentTail(manifest));
  if (!tail.empty()) {
    DYNOPT_RETURN_IF_ERROR(ApplySegmentBytes(
        tail, /*sealed=*/false, 0,
        ArchiveSegmentFileName(manifest.sealed_through_lsn + 1) + "(tail)"));
  }
  return applied_lsn();
}

Result<StandbyDatabase::ReadView> StandbyDatabase::BeginRead() {
  std::shared_lock<std::shared_mutex> lock(apply_mu_);
  if (!catalog_loaded_) {
    return Status::NotFound(
        "standby has not applied any commit yet: nothing to read");
  }
  uint64_t lsn = applied_.load(std::memory_order_acquire);
  return ReadView(std::move(lock), db_.get(), lsn);
}

Result<StandbyPromotion> StandbyDatabase::Promote() {
  // Final direct catch-up: the applied LSN must equal the archive's
  // durable end when the fence lands, or acknowledged commits would die
  // with the old timeline.
  DYNOPT_RETURN_IF_ERROR(CatchUp().status());
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<WalArchive> archive,
                          WalArchive::Open(archive_dir_));
  uint64_t old_timeline = timeline_.load(std::memory_order_relaxed);
  uint64_t new_timeline = old_timeline + 1;
  if (archive->timeline() != old_timeline &&
      archive->timeline() != new_timeline) {
    return Status::Fenced(
        "archive is on timeline " + std::to_string(archive->timeline()) +
        "; this standby (timeline " + std::to_string(old_timeline) +
        ") was overtaken by another promotion");
  }

  std::unique_lock<std::shared_mutex> lock(apply_mu_);
  uint64_t applied = applied_.load(std::memory_order_relaxed);
  // Fence first: from this instant the old primary cannot append, and
  // records past our applied LSN (never acknowledged — archiving precedes
  // the ack) are discarded for good.
  DYNOPT_RETURN_IF_ERROR(archive->FenceTimeline(new_timeline, applied));
  // Crash here: manifest is fenced, superblock still old. Rerunning the
  // promote finds FenceTimeline a no-op and finishes the superblock.
  DYNOPT_RETURN_IF_ERROR(
      CrashHit(options_.crash, CrashPoint::kPromoteBeforeSuperblock));
  store_->SetReplicationState(new_timeline, applied);
  DYNOPT_RETURN_IF_ERROR(store_->WriteSuperblock());
  // Any stale log beside the standby file must not survive into the
  // promoted primary: its LSNs belong to no timeline.
  ::unlink((options_.path + ".wal").c_str());
  timeline_.store(new_timeline, std::memory_order_release);

  Bump(m_promotions_);
  if (MetricsRegistry* registry = db_->metrics()) {
    registry->Set("replication.timeline", new_timeline);
  }
  trace_.Emit(TraceEventKind::kStandbyPromoted, "promote", std::string(),
              static_cast<double>(new_timeline), static_cast<double>(applied));
  StandbyPromotion promotion;
  promotion.new_timeline = new_timeline;
  promotion.applied_lsn = applied;
  return promotion;
}

}  // namespace dynopt
