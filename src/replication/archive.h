// Continuous WAL archiving: the redo log rolled into sealed, checksummed
// segments under a manifest — the durable history that log shipping,
// point-in-time recovery, and failover are all built on.
//
// Directory layout:
//
//   <dir>/MANIFEST            current manifest (atomic tmp+rename updates)
//   <dir>/seg-<start_lsn>     one segment per contiguous LSN range
//   <dir>/base-<lsn>          optional base images (database-file copies)
//
// Segment file: a 32-byte header followed by raw WAL records in the
// on-disk format of durability/wal.h (so the archive's bytes are exactly
// the log's bytes, checksummed record by record):
//
//   [0..4)   u32 magic 'DYSG'
//   [4..8)   u32 version
//   [8..16)  u64 timeline        timeline the segment was created under
//   [16..24) u64 start_lsn       first record's LSN; records are dense
//   [24..32) u64 checksum        FNV-1a over bytes [0..24)
//
// Manifest: header {magic 'DYRM', version, timeline, sealed_through_lsn,
// segment_count, base_count}, then per-segment {start_lsn, end_lsn,
// record_bytes, record_checksum} and per-base {lsn, bytes, checksum}
// entries, then a u64 FNV-1a trailer over everything before it. Updates
// are write-tmp + fsync + rename + fsync-dir, so readers always see a
// complete manifest.
//
// Write discipline: WalArchive is the Wal's WalSink — every commit batch
// is appended and fsynced here *between* the WAL fsync and the commit
// acknowledgement (see wal.h). An append failure poisons the log exactly
// like a failed flush, so "acknowledged" always implies "archived": the
// invariant failover correctness rests on. Appends are validated against
// the dense LSN sequence, and each one re-reads the manifest timeline
// from disk first — a promoted standby bumps it, after which a stale
// primary's appends fail with a typed Fenced status.
//
// Because append batches always end at a commit record (WAL flush groups
// end with the leader's last commit), segments seal at commit boundaries:
// only the *unsealed* current segment can ever end mid-transaction, and
// only after a crash tore its tail.
//
// One process owns the writer; WalArchiveReader is the concurrent-safe
// read surface (shipper, standby, restore) that never mutates the
// directory — the current segment is append-only and record checksums
// make a racing tail read safe.

#ifndef DYNOPT_REPLICATION_ARCHIVE_H_
#define DYNOPT_REPLICATION_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "durability/crash.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace dynopt {

struct WalArchiveOptions {
  /// Seal the current segment once its record region reaches this size.
  /// Sealing happens at append (= commit-batch) boundaries, so segments
  /// may exceed this by up to one batch.
  uint64_t segment_bytes = 256 * 1024;
};

struct ArchiveSegmentInfo {
  uint64_t start_lsn = 0;
  uint64_t end_lsn = 0;
  uint64_t bytes = 0;     // record-region bytes (excludes the 32B header)
  uint64_t checksum = 0;  // FNV-1a over the record region
};

struct ArchiveBaseInfo {
  uint64_t lsn = 0;  // the checkpoint LSN the image captures
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

struct ArchiveManifest {
  uint64_t timeline = 1;
  uint64_t sealed_through_lsn = 0;  // highest LSN in any sealed segment
  std::vector<ArchiveSegmentInfo> segments;  // ascending, dense LSN ranges
  std::vector<ArchiveBaseInfo> bases;        // ascending by lsn
};

/// File name of the segment starting at `start_lsn` ("seg-000000000042").
std::string ArchiveSegmentFileName(uint64_t start_lsn);
std::string ArchiveBaseFileName(uint64_t lsn);
/// Human label for typed errors/trace: "seg-…[start..end]@t<timeline>".
std::string ArchiveSegmentLabel(uint64_t start_lsn, uint64_t end_lsn,
                                uint64_t timeline);

inline constexpr size_t kArchiveSegmentHeaderSize = 32;

/// Validates a segment file's 32-byte header (magic, version, header
/// checksum) and returns its timeline and start LSN. Typed Corruption on
/// mismatch. The standby's apply path and restore both parse with this.
Status ParseArchiveSegmentHeader(std::string_view bytes, uint64_t* timeline,
                                 uint64_t* start_lsn);

/// Read-only view over an archive directory. Stateless (re-reads the
/// manifest on demand), safe to use concurrently with the live writer.
class WalArchiveReader {
 public:
  explicit WalArchiveReader(std::string dir) : dir_(std::move(dir)) {}

  Result<ArchiveManifest> ReadManifest() const;

  /// Whole file bytes (header + records) of a sealed segment, verified
  /// against the manifest entry. Typed NotFound ("archive gap") when the
  /// file is missing, Corruption naming the segment when it fails its
  /// checksum or is shorter than the manifest says.
  Result<std::string> ReadSealedSegment(const ArchiveManifest& manifest,
                                        const ArchiveSegmentInfo& info) const;

  /// Whole file bytes of the unsealed current segment (the one starting
  /// at sealed_through_lsn + 1), or an empty string when there is none.
  /// May end in a torn tail or mid-append bytes — callers scan the valid
  /// record prefix (WalScanRecords) and treat the tear as clean.
  Result<std::string> ReadCurrentTail(const ArchiveManifest& manifest) const;

  Result<std::string> ReadBaseImage(const ArchiveBaseInfo& info) const;

  /// Highest LSN durably archived: max(sealed_through, last valid record
  /// of the current tail).
  Result<uint64_t> DurableEndLsn() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

class WalArchive : public WalSink {
 public:
  /// Creates a fresh archive at `dir` (wiping any existing manifest,
  /// segments, and base images) on timeline 1. Database::Create's path.
  static Result<std::unique_ptr<WalArchive>> Create(
      std::string dir, WalArchiveOptions options = WalArchiveOptions());

  /// Attaches to an existing archive (creating an empty one if absent):
  /// loads the manifest and scans the unsealed current segment, truncating
  /// any torn bytes off its tail (it is unsealed — a clean crash tear).
  /// Database::Open's and Promote's path; readers use WalArchiveReader.
  static Result<std::unique_ptr<WalArchive>> Open(
      std::string dir, WalArchiveOptions options = WalArchiveOptions());

  ~WalArchive() override;
  WalArchive(const WalArchive&) = delete;
  WalArchive& operator=(const WalArchive&) = delete;

  /// WalSink: appends a WAL-durable batch [first_lsn, last_lsn] to the
  /// current segment and fsyncs, sealing it past the size threshold.
  /// Validates the dense LSN sequence and re-reads the on-disk manifest
  /// timeline first — a stale primary (fenced by a promote) gets a typed
  /// Fenced error and nothing is written.
  Status AppendDurableBatch(std::string_view bytes, uint64_t first_lsn,
                            uint64_t last_lsn) override;

  /// Drops current-tail records with LSNs beyond `lsn`. Recovery calls
  /// this after replay so archived-but-uncommitted records (the suffix of
  /// a transaction whose commit never landed) do not outlive the crash
  /// that rolled them back. Never cuts sealed history (`lsn` must be at
  /// or past sealed_through).
  Status TruncateTailTo(uint64_t lsn);

  /// Failover fence: seals the current segment after truncating it to
  /// `truncate_to_lsn` (the promoted standby's applied LSN — anything
  /// past it was never acknowledged), then moves the manifest to
  /// `new_timeline`. Re-fencing onto the timeline already current is an
  /// idempotent no-op (crash-mid-promote reruns); fencing backwards gets
  /// a typed Fenced error.
  Status FenceTimeline(uint64_t new_timeline, uint64_t truncate_to_lsn);

  /// Copies the database file at `db_path` into the archive as the base
  /// image for checkpoint LSN `lsn` (caller guarantees the file is
  /// checkpoint-quiesced). Restore starts from the newest base <= target.
  Status WriteBaseImage(uint64_t lsn, const std::string& db_path);

  /// Highest LSN durably archived by this writer.
  uint64_t durable_end_lsn() const;
  uint64_t timeline() const;
  uint64_t sealed_through_lsn() const;
  const std::string& dir() const { return dir_; }

  /// Binds replication.* counters and the archived-LSN gauge.
  void AttachMetrics(MetricsRegistry* registry);
  void set_crash(CrashController* crash) { crash_ = crash; }

 private:
  WalArchive(std::string dir, WalArchiveOptions options)
      : dir_(std::move(dir)), options_(options) {}

  static Result<std::unique_ptr<WalArchive>> Attach(std::string dir,
                                                    WalArchiveOptions options,
                                                    bool wipe);

  Status WriteManifestLocked();
  Status SealCurrentSegmentLocked();
  Status TruncateTailToLocked(uint64_t lsn);
  Status OpenCurrentSegmentLocked(uint64_t start_lsn);
  uint64_t DurableEndLocked() const {
    return cur_fd_ >= 0 && cur_records_ > 0 ? cur_end_lsn_ : sealed_through_;
  }

  std::string dir_;
  WalArchiveOptions options_;
  CrashController* crash_ = nullptr;

  mutable std::mutex mu_;
  int dir_fd_ = -1;
  uint64_t timeline_ = 1;
  uint64_t sealed_through_ = 0;
  std::vector<ArchiveSegmentInfo> segments_;
  std::vector<ArchiveBaseInfo> bases_;
  // Unsealed current segment (none when cur_fd_ < 0).
  int cur_fd_ = -1;
  uint64_t cur_start_lsn_ = 0;
  uint64_t cur_end_lsn_ = 0;
  uint64_t cur_bytes_ = 0;    // record-region bytes
  uint64_t cur_records_ = 0;
  uint64_t cur_checksum_ = 0;  // rolling FNV-1a over the record region

  MetricsRegistry* registry_ = nullptr;
  Counter* m_batches_ = nullptr;
  Counter* m_bytes_ = nullptr;
  Counter* m_sealed_ = nullptr;
  Counter* m_fence_rejections_ = nullptr;
  Counter* m_base_images_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_REPLICATION_ARCHIVE_H_
