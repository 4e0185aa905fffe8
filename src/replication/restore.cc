#include "replication/restore.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "durability/file_io.h"
#include "durability/file_page_store.h"
#include "durability/recovery.h"

namespace dynopt {

namespace {

Status WritePlainFile(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  Status st = PwriteAll(fd, bytes.data(), bytes.size(), 0);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError("fsync " + path);
  }
  ::close(fd);
  return st;
}

}  // namespace

Result<RestoreReport> RestoreToLsn(const std::string& archive_dir,
                                   uint64_t target_lsn,
                                   const std::string& dest_path) {
  if (target_lsn == 0) {
    return Status::InvalidArgument("restore target lsn must be >= 1");
  }
  WalArchiveReader reader(archive_dir);
  DYNOPT_ASSIGN_OR_RETURN(ArchiveManifest manifest, reader.ReadManifest());
  DYNOPT_ASSIGN_OR_RETURN(uint64_t durable_end, reader.DurableEndLsn());
  if (target_lsn > durable_end) {
    return Status::NotFound("restore target lsn " +
                            std::to_string(target_lsn) +
                            " is beyond archived history (archive durable "
                            "end is lsn " +
                            std::to_string(durable_end) + ")");
  }

  RestoreReport report;
  report.source_timeline = manifest.timeline;

  // Newest base image at or below the target; without one, replay from
  // genesis over an initially empty file.
  const ArchiveBaseInfo* base = nullptr;
  for (const ArchiveBaseInfo& b : manifest.bases) {
    if (b.lsn <= target_lsn && (base == nullptr || b.lsn > base->lsn)) {
      base = &b;
    }
  }
  ::unlink(dest_path.c_str());
  ::unlink((dest_path + ".wal").c_str());
  if (base != nullptr) {
    DYNOPT_ASSIGN_OR_RETURN(std::string image, reader.ReadBaseImage(*base));
    DYNOPT_RETURN_IF_ERROR(WritePlainFile(dest_path, image));
    report.base_lsn = base->lsn;
  }

  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(dest_path));

  // Same staged→promoted redo as crash recovery, across segment files.
  RedoApplier redo(store->page_count());
  auto replay_record = [&](const WalRecordView& rec) -> Status {
    if (rec.lsn <= report.base_lsn || rec.lsn > target_lsn) {
      return Status::OK();
    }
    return redo.Apply(rec);
  };

  uint64_t prev_end = 0;
  for (const ArchiveSegmentInfo& seg : manifest.segments) {
    if (seg.start_lsn != prev_end + 1) {
      return Status::Corruption(
          "archive manifest gap: segment " +
          ArchiveSegmentLabel(seg.start_lsn, seg.end_lsn, manifest.timeline) +
          " does not follow lsn " + std::to_string(prev_end));
    }
    prev_end = seg.end_lsn;
    if (seg.end_lsn <= report.base_lsn) continue;  // fully covered by base
    if (seg.start_lsn > target_lsn) break;
    DYNOPT_ASSIGN_OR_RETURN(std::string bytes,
                            reader.ReadSealedSegment(manifest, seg));
    DYNOPT_RETURN_IF_ERROR(WalScanRecords(
        std::string_view(bytes).substr(kArchiveSegmentHeaderSize),
        seg.start_lsn, replay_record, nullptr, nullptr));
    report.segments_applied++;
  }
  if (target_lsn > manifest.sealed_through_lsn) {
    DYNOPT_ASSIGN_OR_RETURN(std::string tail,
                            reader.ReadCurrentTail(manifest));
    if (!tail.empty()) {
      // Unsealed tail: the valid prefix is authoritative, a tear is clean.
      DYNOPT_RETURN_IF_ERROR(WalScanRecords(
          std::string_view(tail).substr(kArchiveSegmentHeaderSize),
          manifest.sealed_through_lsn + 1, replay_record, nullptr, nullptr));
      report.segments_applied++;
    }
  }

  DYNOPT_RETURN_IF_ERROR(redo.WriteTo(store.get()));
  report.restored_lsn = redo.last_commit_lsn() > 0 ? redo.last_commit_lsn()
                                                   : report.base_lsn;
  report.commits_applied = redo.commits();
  report.pages_applied = redo.pages();
  DYNOPT_RETURN_IF_ERROR(store->Sync());
  // Timeline 0 marks the clone as detached: it must never continue the
  // archive's history, and the Open-time fence enforces exactly that.
  store->SetReplicationState(0, report.restored_lsn);
  DYNOPT_RETURN_IF_ERROR(store->WriteSuperblock());
  return report;
}

}  // namespace dynopt
