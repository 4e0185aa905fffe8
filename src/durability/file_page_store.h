// FilePageStore: the durable PageStore backend — a single database file.
//
// File layout:
//
//   [0      .. 4096)   superblock slot A   (4 KiB)
//   [4096   .. 8192)   superblock slot B   (4 KiB)
//   [8192 + i*8208 ..)  frame i: 16-byte header + 8 KiB page body
//
// Frame header:
//   [0..4)   u32 magic 'DYPG'
//   [4..8)   u32 page_id            must equal the frame index
//   [8..16)  u64 checksum           FNV-1a over the 8 KiB body
//
// Page writes are in-place pwrites at fixed offsets; a frame that has been
// allocated but never written reads back as a zeroed page (the same
// contract as MemPageStore::Allocate). A frame whose checksum or header
// does not verify is reported as Corruption — the WAL's committed images
// are the authority for repairing it.
//
// The two superblock slots ping-pong: each checkpoint writes the slot
// selected by (seq & 1) with seq+1, so a torn superblock write leaves the
// previous slot intact and recovery falls back to it (highest valid seq
// wins). The superblock records the checkpointed page count; pages written
// after the checkpoint are reconciled from the WAL on recovery via
// EnsureAllocated().
//
// Thread safety: Allocate/Read/Write/page_count from any thread (the
// BufferPool serializes same-page access); Sync/WriteSuperblock belong to
// the single-threaded checkpoint path.

#ifndef DYNOPT_DURABILITY_FILE_PAGE_STORE_H_
#define DYNOPT_DURABILITY_FILE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "durability/crash.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "util/status.h"

namespace dynopt {

struct Superblock {
  uint64_t seq = 0;         // checkpoint sequence; 0 = never checkpointed
  uint64_t page_count = 0;  // allocated pages as of that checkpoint
  // Replication fields (superblock v2; v1 slots decode with the defaults).
  /// Which life of the archived history this file belongs to. Promote()
  /// bumps it in lockstep with the archive manifest, which is how a stale
  /// primary is fenced: its superblock timeline no longer matches.
  uint64_t timeline = 1;
  /// Warm standby only: the highest archived commit LSN whose images are
  /// durably applied to this file. 0 on a primary. Standby restart resumes
  /// apply from here; re-applying past it is idempotent (redo images).
  uint64_t replay_lsn = 0;
};

class FilePageStore : public PageStore {
 public:
  /// Opens (creating if absent) the database file at `path` and loads the
  /// newest valid superblock. A fresh file starts at seq 0 / zero pages.
  static Result<std::unique_ptr<FilePageStore>> Open(
      std::string path, CrashController* crash = nullptr);
  ~FilePageStore() override;

  PageId Allocate() override;
  Status Read(PageId id, PageData* dst) const override;
  Status Write(PageId id, const PageData& src) override;
  size_t page_count() const override;

  /// fsyncs the data file (crash point kStoreSync).
  Status Sync();

  /// Recovery: raises the allocated-page watermark to at least `n`
  /// (committed transactions may have allocated past the superblock).
  void EnsureAllocated(size_t n);

  /// Checkpoint: persists {seq+1, page_count()} into the alternate
  /// superblock slot and fsyncs. The in-memory superblock advances only
  /// on success.
  Status WriteSuperblock();

  /// The superblock as loaded at Open / last successfully written.
  Superblock superblock() const;

  /// Sets the replication fields carried by the *next* WriteSuperblock()
  /// (and every one after, until changed). The standby stamps replay_lsn
  /// per apply batch; Promote() stamps the new timeline.
  void SetReplicationState(uint64_t timeline, uint64_t replay_lsn);

  const std::string& path() const { return path_; }

  /// Byte offset of page `id`'s frame in the database file, and the size
  /// of the per-frame header ahead of the page body. Published for the
  /// integrity tooling: corruption-injection tests and the scrub bench
  /// reach a specific page's on-disk bytes through these instead of
  /// re-deriving the file layout.
  static uint64_t FrameOffsetOf(PageId id);
  static constexpr size_t kFrameHeaderBytes = 16;

 private:
  FilePageStore(std::string path, int fd, CrashController* crash)
      : path_(std::move(path)), fd_(fd), crash_(crash) {}

  std::string path_;
  int fd_ = -1;
  CrashController* crash_ = nullptr;

  std::atomic<size_t> page_count_{0};
  mutable std::mutex super_mu_;  // guards super_ and slot selection
  Superblock super_;
};

}  // namespace dynopt

#endif  // DYNOPT_DURABILITY_FILE_PAGE_STORE_H_
