// Write-ahead log with physical page-image records and group commit.
//
// The log is a single append-only file of checksummed records:
//
//   file header (24 bytes)
//     [0..4)   u32 magic 'DYWL'
//     [4..8)   u32 version
//     [8..16)  u64 start_lsn        LSN of the first record in this file
//     [16..24) u64 checksum         FNV-1a over bytes [0..16)
//   records, back to back (32-byte header + payload)
//     [0..4)   u32 magic 'WREC'
//     [4..8)   u32 type             WalRecordType
//     [8..16)  u64 lsn              dense: start_lsn, start_lsn+1, ...
//     [16..20) u32 page_id          page-image records; else kInvalidPageId
//     [20..24) u32 payload_len
//     [24..32) u64 checksum         FNV-1a over header[0..24) + payload
//
// A transaction is one Commit() call: the images of every page it touched
// followed by one commit record, written and fsynced as a single batch.
// Torn writes are detected on replay by the record checksums (and the
// dense LSN sequence): replay applies page images only up to the last
// complete commit record, so a half-written batch rolls back wholesale.
//
// Group commit: concurrent Commit() calls park their records in a shared
// pending buffer; the first one in becomes the leader, writes and fsyncs
// everyone's bytes with ONE fsync, and wakes the followers whose LSNs the
// flush covered. Under load the fsync cost amortizes across the group —
// bench_recovery measures the resulting commit-throughput multiple. With
// group_commit off every Commit() pays its own fsync (the baseline).
//
// Thread safety: Commit() from any thread; Replay()/Reset() must not run
// concurrently with commits (recovery and checkpointing own the engine).

#ifndef DYNOPT_DURABILITY_WAL_H_
#define DYNOPT_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "durability/crash.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "util/status.h"

namespace dynopt {

struct WalOptions {
  /// One fsync per flush group (true) vs one fsync per commit (false).
  bool group_commit = true;
  /// Added device-flush latency per fsync (0 = off). Like the page store's
  /// simulated latency, this models the rotational/flash flush cost that a
  /// fast test filesystem hides, so group-commit batching is measurable.
  uint32_t simulated_fsync_micros = 0;
  /// First LSN of a freshly created (empty) log file. A promoted standby
  /// seeds this with applied_lsn + 1 so the new timeline's records continue
  /// the archive's dense LSN sequence. Ignored for existing files.
  uint64_t initial_start_lsn = 1;
  /// Highest LSN the archive holds in *sealed* (manifest-listed) segments.
  /// Open() normally truncates a torn tail and moves on; but a tear at or
  /// below this floor means checksum-failing bytes inside history the
  /// manifest says is sealed — media damage, not a crash mid-append — so
  /// Open() refuses with a typed Corruption naming the LSN gap instead of
  /// silently truncating archived history. 0 = no archive, always truncate.
  uint64_t sealed_floor_lsn = 0;
};

/// Record framing: a kWalRecordHeaderSize header (layout above), then
/// payload_len bytes. Archive segments hold these records verbatim.
inline constexpr size_t kWalRecordHeaderSize = 32;

enum class WalRecordType : uint32_t {
  kPageImage = 1,  // payload: the 8 KiB post-image of page_id
  kCommit = 2,     // payload: opaque commit annotation (engine state)
  kNote = 3,       // payload: opaque (bench/test traffic)
};

/// A decoded record handed to the Replay callback. `payload` points into
/// a per-call buffer — copy it to keep it.
struct WalRecordView {
  WalRecordType type = WalRecordType::kNote;
  uint64_t lsn = 0;
  PageId page = kInvalidPageId;
  std::string_view payload;
};

/// Bytes the record occupies in the log or an archive segment.
inline size_t WalRecordSize(const WalRecordView& rec) {
  return kWalRecordHeaderSize + rec.payload.size();
}

struct WalReplayStats {
  uint64_t records = 0;
  uint64_t commits = 0;
  uint64_t bytes = 0;      // bytes of valid records scanned
  bool torn_tail = false;  // trailing bytes failed validation (discarded)
};

/// Serializes one record (32-byte header + payload) in the on-disk format
/// onto `out`. Shared by the WAL's commit path and the archive's recovery
/// catch-up, so re-archived records are byte-identical to the originals.
void WalAppendRecord(std::string* out, WalRecordType type, uint64_t lsn,
                     PageId page, std::string_view payload);

/// Scans back-to-back serialized records from a buffer, validating magic,
/// checksum, and the dense LSN sequence from `expected_first_lsn`. Stops
/// cleanly at the first invalid byte: `*valid_bytes` is the length of the
/// valid prefix and `*torn` whether invalid bytes followed it. `fn` (may
/// be null) sees each valid record; a non-OK status from it aborts the
/// scan and is returned. This is the archive-segment reader: standby
/// apply and point-in-time restore both parse segments through it, with
/// the same record parser Wal::Replay streams the log file through.
Status WalScanRecords(std::string_view bytes, uint64_t expected_first_lsn,
                      const std::function<Status(const WalRecordView&)>& fn,
                      size_t* valid_bytes, bool* torn);

/// A durable-batch observer wired into the commit path. After a batch of
/// records [first_lsn, last_lsn] survives the WAL fsync, the sink gets the
/// exact batch bytes *before* any committer is acknowledged; a sink error
/// poisons the log like a failed flush (no ack over an unarchived commit).
/// The WAL archive (replication/archive.h) is the one implementation.
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual Status AppendDurableBatch(std::string_view bytes,
                                    uint64_t first_lsn, uint64_t last_lsn) = 0;
};

class Wal {
 public:
  /// Opens (creating if absent) the log at `path`. An existing log is
  /// scanned to its last valid record; a torn tail is remembered and
  /// ignored for appends.
  static Result<std::unique_ptr<Wal>> Open(std::string path,
                                           WalOptions options = WalOptions(),
                                           CrashController* crash = nullptr);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends the page images plus one commit record carrying `payload`,
  /// and returns once the whole batch is durable (or with the error that
  /// prevented it). Thread-safe; this is the group-commit entry point.
  Status Commit(const std::vector<std::pair<PageId, const PageData*>>& pages,
                std::string_view payload);

  /// A page-less transaction (bench/test traffic through the same path).
  Status CommitNote(std::string_view note) { return Commit({}, note); }

  /// Streams every valid record from the start of the file through `fn`
  /// (may be null), stopping cleanly at the first torn/corrupt record
  /// (recorded in `stats->torn_tail`, not an error). A non-OK status from
  /// `fn` aborts.
  Status Replay(const std::function<Status(const WalRecordView&)>& fn,
                WalReplayStats* stats) const;

  /// Scans the stable prefix of the log for the newest *committed* image
  /// of `page`; returns true and fills `*out` when one exists. Images in
  /// a batch whose commit record has not landed are ignored — a half-
  /// appended batch parses as a torn tail — which is exactly what the
  /// self-healing read path needs: WAL-before-data guarantees any page
  /// that reached the data file belongs to a fully durable batch, so its
  /// image is always inside the prefix this scan sees. Safe to call
  /// concurrently with Commit(); must not race Reset() (checkpointing
  /// owns the engine, like recovery).
  Result<bool> LatestCommittedImage(PageId page, PageData* out) const;

  /// Empties the log (post-checkpoint): truncates to a fresh header whose
  /// start_lsn continues the sequence, and fsyncs. A nonzero `restart_lsn`
  /// restarts the sequence there instead — recovery passes its last
  /// committed LSN + 1 so LSNs consumed by a discarded (uncommitted) tail
  /// are reused rather than skipped, keeping the archive's sequence dense.
  Status Reset(uint64_t restart_lsn = 0);

  uint64_t next_lsn() const;
  uint64_t durable_lsn() const;
  /// True when Open() found (and truncated away) a torn tail — the
  /// signature of a crash mid-append. Replay after Open no longer sees
  /// the tail; this flag is how recovery learns it existed.
  bool tail_was_torn() const { return tail_was_torn_; }

  /// Binds wal.* counters and the group-size histogram. Call before
  /// commit traffic; null detaches.
  void AttachMetrics(MetricsRegistry* registry);

  /// Attaches the durable-batch sink (the WAL archive; not owned; null
  /// detaches). Call before commit traffic. Once attached, a commit is
  /// acknowledged only after its batch reaches both the log file and the
  /// sink; a sink failure poisons the log exactly like a failed flush.
  void AttachSink(WalSink* sink);

 private:
  Wal(std::string path, int fd, const WalOptions& options,
      CrashController* crash)
      : path_(std::move(path)), fd_(fd), options_(options), crash_(crash) {}

  /// Writes `batch` at the append offset and fsyncs; updates size_.
  /// Requires mu_ NOT held when group committing (leader runs unlocked).
  Status WriteAndSync(const std::string& batch, uint64_t offset);

  Status WriteHeader(uint64_t start_lsn);

  std::string path_;
  int fd_ = -1;
  WalOptions options_;
  CrashController* crash_ = nullptr;
  WalSink* sink_ = nullptr;  // archive; appended after fsync, before ack

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;          // serialized, not yet written
  uint64_t pending_commits_ = 0; // commit records inside pending_
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t size_ = 0;            // append offset (header + valid records)
  bool flush_in_progress_ = false;
  Status last_error_;            // poisons the log after a failed flush
  bool tail_was_torn_ = false;   // set once at Open; never cleared

  Counter* m_commits_ = nullptr;
  Counter* m_fsyncs_ = nullptr;
  Counter* m_records_ = nullptr;
  Counter* m_bytes_ = nullptr;
  Histogram* m_group_size_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_DURABILITY_WAL_H_
