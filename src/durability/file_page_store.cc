#include "durability/file_page_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "durability/checksum.h"
#include "durability/file_io.h"

namespace dynopt {
namespace {

constexpr uint32_t kFrameMagic = 0x47505944u;  // 'DYPG'
constexpr uint32_t kSuperMagic = 0x42535944u;  // 'DYSB'
constexpr uint32_t kSuperVersion = 2;
constexpr size_t kSuperSlotSize = 4096;
constexpr size_t kFrameHeaderSize = 16;
constexpr size_t kFrameSize = kFrameHeaderSize + kPageSize;
constexpr size_t kDataStart = 2 * kSuperSlotSize;

uint64_t FrameOffset(PageId id) {
  return kDataStart + static_cast<uint64_t>(id) * kFrameSize;
}

/// Reads up to n bytes; short reads past EOF return the byte count.
Result<size_t> FullPread(int fd, void* data, size_t n, uint64_t offset) {
  auto* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, p + got, n - got, static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread failed: " +
                             std::string(std::strerror(errno)));
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  return got;
}

// Superblock slot layout (v2):
//   [0..4)   u32 magic 'DYSB'
//   [4..8)   u32 version
//   [8..16)  u64 seq
//   [16..24) u64 page_count
//   [24..32) u64 timeline        (v2; v1 slots stop at the checksum here)
//   [32..40) u64 replay_lsn      (v2)
//   [40..48) u64 checksum over [0..40)   (v1: [24..32) over [0..24))
void EncodeSuperblock(const Superblock& sb, uint8_t* slot) {
  std::memset(slot, 0, kSuperSlotSize);
  PageWrite<uint32_t>(slot, 0, kSuperMagic);
  PageWrite<uint32_t>(slot, 4, kSuperVersion);
  PageWrite<uint64_t>(slot, 8, sb.seq);
  PageWrite<uint64_t>(slot, 16, sb.page_count);
  PageWrite<uint64_t>(slot, 24, sb.timeline);
  PageWrite<uint64_t>(slot, 32, sb.replay_lsn);
  PageWrite<uint64_t>(slot, 40, Fnv1a64(slot, 40));
}

bool DecodeSuperblock(const uint8_t* slot, Superblock* out) {
  if (PageRead<uint32_t>(slot, 0) != kSuperMagic) return false;
  uint32_t version = PageRead<uint32_t>(slot, 4);
  if (version < 1 || version > kSuperVersion) return false;
  if (version == 1) {
    // Pre-replication slot: no timeline/replay fields; first timeline.
    if (PageRead<uint64_t>(slot, 24) != Fnv1a64(slot, 24)) return false;
    out->timeline = 1;
    out->replay_lsn = 0;
  } else {
    if (PageRead<uint64_t>(slot, 40) != Fnv1a64(slot, 40)) return false;
    out->timeline = PageRead<uint64_t>(slot, 24);
    out->replay_lsn = PageRead<uint64_t>(slot, 32);
  }
  out->seq = PageRead<uint64_t>(slot, 8);
  out->page_count = PageRead<uint64_t>(slot, 16);
  return true;
}

}  // namespace

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    std::string path, CrashController* crash) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + " failed: " +
                           std::string(std::strerror(errno)));
  }
  auto store = std::unique_ptr<FilePageStore>(
      new FilePageStore(std::move(path), fd, crash));

  // Load whichever superblock slot carries the highest valid seq. A fresh
  // file (or one that crashed before its first checkpoint) has neither and
  // starts at seq 0 / zero pages.
  std::vector<uint8_t> slots(2 * kSuperSlotSize);
  DYNOPT_ASSIGN_OR_RETURN(size_t got,
                          FullPread(fd, slots.data(), slots.size(), 0));
  Superblock best;
  bool found = false;
  for (int i = 0; i < 2; ++i) {
    if (got < (static_cast<size_t>(i) + 1) * kSuperSlotSize) break;
    Superblock sb;
    if (DecodeSuperblock(slots.data() + i * kSuperSlotSize, &sb) &&
        (!found || sb.seq > best.seq)) {
      best = sb;
      found = true;
    }
  }
  store->super_ = best;
  store->page_count_.store(best.page_count, std::memory_order_relaxed);
  return store;
}

FilePageStore::~FilePageStore() {
  if (fd_ >= 0) ::close(fd_);
}

PageId FilePageStore::Allocate() {
  // Growth is logical: the frame materializes in the file on first Write,
  // and an unwritten frame reads back zeroed (matching MemPageStore).
  return static_cast<PageId>(
      page_count_.fetch_add(1, std::memory_order_relaxed));
}

Status FilePageStore::Read(PageId id, PageData* dst) const {
  SimulateReadLatency();
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(id));
  }
  uint8_t frame[kFrameSize];
  DYNOPT_ASSIGN_OR_RETURN(size_t got,
                          FullPread(fd_, frame, kFrameSize, FrameOffset(id)));
  if (got == 0) {
    dst->fill(0);  // allocated, never written
    return Status::OK();
  }
  if (got < kFrameSize) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": truncated frame");
  }
  // An all-zero header is an unwritten frame inside a sparse/zero-filled
  // region (a later page was written first); that is a legitimate zeroed
  // page, not corruption.
  if (PageRead<uint32_t>(frame, 0) == 0 && PageRead<uint64_t>(frame, 8) == 0) {
    dst->fill(0);
    return Status::OK();
  }
  if (PageRead<uint32_t>(frame, 0) != kFrameMagic ||
      PageRead<uint32_t>(frame, 4) != id) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": bad frame header");
  }
  if (PageRead<uint64_t>(frame, 8) !=
      Fnv1a64(frame + kFrameHeaderSize, kPageSize)) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": checksum mismatch");
  }
  std::memcpy(dst->data(), frame + kFrameHeaderSize, kPageSize);
  return Status::OK();
}

Status FilePageStore::Write(PageId id, const PageData& src) {
  SimulateWriteLatency();
  DYNOPT_RETURN_IF_ERROR(CrashHit(crash_, CrashPoint::kStorePageWrite));
  if (id >= page_count_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }
  uint8_t frame[kFrameSize];
  PageWrite<uint32_t>(frame, 0, kFrameMagic);
  PageWrite<uint32_t>(frame, 4, id);
  PageWrite<uint64_t>(frame, 8, Fnv1a64(src.data(), kPageSize));
  std::memcpy(frame + kFrameHeaderSize, src.data(), kPageSize);
  return PwriteAll(fd_, frame, kFrameSize, FrameOffset(id));
}

uint64_t FilePageStore::FrameOffsetOf(PageId id) { return FrameOffset(id); }

size_t FilePageStore::page_count() const {
  return page_count_.load(std::memory_order_acquire);
}

Status FilePageStore::Sync() {
  DYNOPT_RETURN_IF_ERROR(CrashHit(crash_, CrashPoint::kStoreSync));
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + " failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

void FilePageStore::EnsureAllocated(size_t n) {
  size_t cur = page_count_.load(std::memory_order_relaxed);
  while (cur < n && !page_count_.compare_exchange_weak(
                        cur, n, std::memory_order_release,
                        std::memory_order_relaxed)) {
  }
}

Status FilePageStore::WriteSuperblock() {
  std::lock_guard<std::mutex> lock(super_mu_);
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::IOError("simulated crash: storage is offline");
  }
  Superblock next;
  next.seq = super_.seq + 1;
  next.page_count = page_count_.load(std::memory_order_acquire);
  next.timeline = super_.timeline;
  next.replay_lsn = super_.replay_lsn;
  uint8_t slot[kSuperSlotSize];
  EncodeSuperblock(next, slot);
  uint64_t offset = (next.seq & 1) != 0 ? 0 : kSuperSlotSize;
  DYNOPT_RETURN_IF_ERROR(PwriteAll(fd_, slot, kSuperSlotSize, offset));
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + " failed: " +
                           std::string(std::strerror(errno)));
  }
  super_ = next;
  return Status::OK();
}

Superblock FilePageStore::superblock() const {
  std::lock_guard<std::mutex> lock(super_mu_);
  return super_;
}

void FilePageStore::SetReplicationState(uint64_t timeline,
                                        uint64_t replay_lsn) {
  std::lock_guard<std::mutex> lock(super_mu_);
  super_.timeline = timeline;
  super_.replay_lsn = replay_lsn;
}

}  // namespace dynopt
