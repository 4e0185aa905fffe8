#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "durability/checksum.h"
#include "durability/file_io.h"
#include "util/coding.h"

namespace dynopt {

namespace {

constexpr uint32_t kWalMagic = 0x4C575944;     // 'DYWL'
constexpr uint32_t kRecordMagic = 0x43455257;  // 'WREC'
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 24;
// A page image plus slack; anything longer is a torn or foreign length.
constexpr uint32_t kMaxPayload = kPageSize + 64;

using RecordFn = std::function<Status(const WalRecordView&)>;

// Validates the log file's header and returns its first LSN.
Result<uint64_t> ReadStartLsn(int fd) {
  char header[kHeaderSize];
  if (::pread(fd, header, kHeaderSize, 0) !=
      static_cast<ssize_t>(kHeaderSize)) {
    return Status::Corruption("wal header truncated");
  }
  ByteReader r(std::string_view(header, kHeaderSize));
  uint32_t magic = 0, version = 0;
  uint64_t start_lsn = 0, sum = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&start_lsn) ||
      !r.U64(&sum) || magic != kWalMagic || version != kWalVersion) {
    return Status::Corruption("wal header magic/version mismatch");
  }
  if (sum != Fnv1a64(header, kHeaderSize - 8)) {
    return Status::Corruption("wal header checksum mismatch");
  }
  return start_lsn;
}

// The one record parser, behind WalScanRecords (archive segments in
// memory) and Wal::Replay (the log file, streamed). `read_at(offset, n,
// buf)` returns up to `n` bytes at `offset`, fewer at the end of the input;
// it may fill `buf` and return a view of it. Checks magic, the dense LSN
// sequence, the payload bound and the checksum; the first record that
// fails ends the scan as a torn tail.
template <typename ReadAt>
Status ScanRecords(ReadAt&& read_at, uint64_t offset, uint64_t expected_lsn,
                   const RecordFn& fn, WalReplayStats* stats) {
  std::string header_buf;
  std::string payload_buf;
  for (;;) {
    std::string_view header =
        read_at(offset, kWalRecordHeaderSize, &header_buf);
    if (header.empty()) break;
    ByteReader r(header);
    uint32_t magic = 0, type = 0, page = 0, payload_len = 0;
    uint64_t lsn = 0, sum = 0;
    if (!r.U32(&magic) || !r.U32(&type) || !r.U64(&lsn) || !r.U32(&page) ||
        !r.U32(&payload_len) || !r.U64(&sum) || magic != kRecordMagic ||
        lsn != expected_lsn || payload_len > kMaxPayload) {
      stats->torn_tail = true;
      break;
    }
    std::string_view payload =
        read_at(offset + kWalRecordHeaderSize, payload_len, &payload_buf);
    if (payload.size() < payload_len ||
        Fnv1a64(payload.data(), payload.size(),
                Fnv1a64(header.data(), kWalRecordHeaderSize - 8)) != sum) {
      stats->torn_tail = true;
      break;
    }
    WalRecordView view;
    view.type = static_cast<WalRecordType>(type);
    view.lsn = lsn;
    view.page = page;
    view.payload = payload;
    if (fn != nullptr) DYNOPT_RETURN_IF_ERROR(fn(view));
    stats->records++;
    if (view.type == WalRecordType::kCommit) stats->commits++;
    stats->bytes += WalRecordSize(view);
    offset += WalRecordSize(view);
    expected_lsn++;
  }
  return Status::OK();
}

}  // namespace

void WalAppendRecord(std::string* out, WalRecordType type, uint64_t lsn,
                     PageId page, std::string_view payload) {
  size_t header_at = out->size();
  PutU32(out, kRecordMagic);
  PutU32(out, static_cast<uint32_t>(type));
  PutU64(out, lsn);
  PutU32(out, page);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  uint64_t sum = Fnv1a64(out->data() + header_at, kWalRecordHeaderSize - 8);
  sum = Fnv1a64(payload.data(), payload.size(), sum);
  PutU64(out, sum);
  out->append(payload.data(), payload.size());
}

Status WalScanRecords(std::string_view bytes, uint64_t expected_first_lsn,
                      const RecordFn& fn, size_t* valid_bytes, bool* torn) {
  WalReplayStats stats;
  DYNOPT_RETURN_IF_ERROR(ScanRecords(
      [bytes](uint64_t offset, size_t n, std::string*) {
        return offset < bytes.size() ? bytes.substr(offset, n)
                                     : std::string_view();
      },
      0, expected_first_lsn, fn, &stats));
  if (valid_bytes != nullptr) *valid_bytes = stats.bytes;
  if (torn != nullptr) *torn = stats.torn_tail;
  return Status::OK();
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string path, WalOptions options,
                                       CrashController* crash) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open wal " + path + ": " +
                           std::strerror(errno));
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(path), fd, options, crash));

  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) return Status::IOError("wal lseek failed");
  if (end == 0) {
    uint64_t first = options.initial_start_lsn > 0 ? options.initial_start_lsn
                                                   : 1;
    DYNOPT_RETURN_IF_ERROR(wal->WriteHeader(first));
    if (::fsync(fd) != 0) return Status::IOError("wal header fsync failed");
    wal->next_lsn_ = first;
    wal->durable_lsn_ = first - 1;
    wal->size_ = kHeaderSize;
    return wal;
  }

  // Existing log: scan to the last valid record to place the append
  // offset and LSN counters (valid records are dense from the start LSN).
  WalReplayStats stats;
  DYNOPT_RETURN_IF_ERROR(wal->Replay(nullptr, &stats));
  DYNOPT_ASSIGN_OR_RETURN(uint64_t start_lsn, ReadStartLsn(fd));
  wal->next_lsn_ = start_lsn + stats.records;
  wal->durable_lsn_ = wal->next_lsn_ - 1;
  wal->size_ = kHeaderSize + stats.bytes;
  wal->tail_was_torn_ = stats.torn_tail;
  // A torn tail is normally the benign signature of a crash mid-append.
  // But when the tear sits at or below the archive's sealed floor, these
  // are checksum-failing bytes inside history the manifest says is sealed
  // — media damage. Truncating would silently shorten archived history,
  // so fail typed instead; the archive still holds the authoritative copy.
  if (stats.torn_tail && wal->next_lsn_ <= options.sealed_floor_lsn) {
    return Status::Corruption(
        "wal torn at lsn " + std::to_string(wal->next_lsn_) +
        " but the archive manifest seals through lsn " +
        std::to_string(options.sealed_floor_lsn) +
        "; refusing to truncate sealed history (gap [" +
        std::to_string(wal->next_lsn_) + ", " +
        std::to_string(options.sealed_floor_lsn) + "])");
  }
  // Discard a torn tail for good: later appends land at size_, and a
  // leftover sliver of the dead run's garbage must not outlive them.
  if (stats.torn_tail && static_cast<uint64_t>(end) > wal->size_) {
    if (::ftruncate(fd, static_cast<off_t>(wal->size_)) != 0) {
      return Status::IOError("wal tail truncate failed: " +
                             std::string(std::strerror(errno)));
    }
    if (::fsync(fd) != 0) return Status::IOError("wal truncate fsync failed");
  }
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::AttachSink(WalSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

void Wal::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    m_commits_ = m_fsyncs_ = m_records_ = m_bytes_ = nullptr;
    m_group_size_ = nullptr;
    return;
  }
  m_commits_ = registry->counter("wal.commits");
  m_fsyncs_ = registry->counter("wal.fsyncs");
  m_records_ = registry->counter("wal.records");
  m_bytes_ = registry->counter("wal.bytes");
  m_group_size_ = registry->histogram("wal.group_size",
                                      {1, 2, 4, 8, 16, 32, 64});
}

Status Wal::WriteHeader(uint64_t start_lsn) {
  std::string header;
  header.reserve(kHeaderSize);
  PutU32(&header, kWalMagic);
  PutU32(&header, kWalVersion);
  PutU64(&header, start_lsn);
  PutU64(&header, Fnv1a64(header.data(), kHeaderSize - 8));
  return PwriteAll(fd_, header.data(), header.size(), 0);
}

Status Wal::WriteAndSync(const std::string& batch, uint64_t offset) {
  DYNOPT_RETURN_IF_ERROR(CrashHit(crash_, CrashPoint::kWalBeforeWrite));
  if (crash_ != nullptr && crash_->HitTear(CrashPoint::kWalTornWrite)) {
    // The simulated device tears the batch in half mid-write and the
    // process dies: a partial record (or partial batch with no commit
    // record) lands in the file for recovery's checksum scan to reject.
    PwriteAll(fd_, batch.data(), batch.size() / 2, offset).ok();
    return crash_->ForceCrash(CrashPoint::kWalTornWrite);
  }
  DYNOPT_RETURN_IF_ERROR(PwriteAll(fd_, batch.data(), batch.size(), offset));
  DYNOPT_RETURN_IF_ERROR(CrashHit(crash_, CrashPoint::kWalBeforeSync));
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("wal fsync: ") + std::strerror(errno));
  }
  if (options_.simulated_fsync_micros != 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.simulated_fsync_micros));
  }
  Bump(m_fsyncs_);
  Bump(m_bytes_, batch.size());
  return CrashHit(crash_, CrashPoint::kWalAfterSync);
}

Status Wal::Commit(
    const std::vector<std::pair<PageId, const PageData*>>& pages,
    std::string_view payload) {
  std::unique_lock<std::mutex> lk(mu_);
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::IOError("simulated crash: wal is offline");
  }
  if (!last_error_.ok()) return last_error_;

  // Serialize this transaction's records into the shared pending buffer
  // under the lock (LSNs are assigned here, densely).
  for (const auto& [id, data] : pages) {
    WalAppendRecord(&pending_, WalRecordType::kPageImage, next_lsn_++, id,
                 std::string_view(reinterpret_cast<const char*>(data->data()),
                                  data->size()));
    Bump(m_records_);
  }
  uint64_t my_lsn = next_lsn_++;
  WalAppendRecord(&pending_, WalRecordType::kCommit, my_lsn, kInvalidPageId,
               payload);
  Bump(m_records_);
  Bump(m_commits_);
  pending_commits_++;

  if (!options_.group_commit) {
    // Per-commit fsync baseline: flush inline, fully serialized.
    std::string batch;
    batch.swap(pending_);
    pending_commits_ = 0;
    uint64_t offset = size_;
    uint64_t first_lsn = durable_lsn_ + 1;
    Status st = WriteAndSync(batch, offset);
    if (st.ok() && sink_ != nullptr) {
      st = sink_->AppendDurableBatch(batch, first_lsn, my_lsn);
    }
    if (st.ok()) {
      size_ = offset + batch.size();
      durable_lsn_ = my_lsn;
      Observe(m_group_size_, 1);
    } else {
      // Locally durable but unarchived (or not even written): either way
      // the commit was never acknowledged, so poison like a failed flush.
      last_error_ = st;
    }
    return st;
  }

  for (;;) {
    if (durable_lsn_ >= my_lsn) return Status::OK();
    if (!last_error_.ok()) return last_error_;
    if (!flush_in_progress_) break;  // become the leader
    cv_.wait(lk);
  }

  // Leader: take everything pending (possibly several sessions' batches)
  // and make it durable with one fsync.
  flush_in_progress_ = true;
  std::string batch;
  batch.swap(pending_);
  uint64_t batch_commits = pending_commits_;
  pending_commits_ = 0;
  uint64_t batch_last_lsn = next_lsn_ - 1;
  uint64_t offset = size_;
  uint64_t batch_first_lsn = durable_lsn_ + 1;
  WalSink* sink = sink_;
  lk.unlock();

  Status st = WriteAndSync(batch, offset);
  // Semi-synchronous shipping: the batch must reach the archive before any
  // committer in it is acknowledged, so an acked commit can never be lost
  // to a failover (and an unacked one never shipped ahead of its ack).
  if (st.ok() && sink != nullptr) {
    st = sink->AppendDurableBatch(batch, batch_first_lsn, batch_last_lsn);
  }

  lk.lock();
  flush_in_progress_ = false;
  if (st.ok()) {
    size_ = offset + batch.size();
    durable_lsn_ = batch_last_lsn;
    Observe(m_group_size_, static_cast<double>(batch_commits));
  } else {
    // A lost batch means every unacked commit is lost: poison the log so
    // no later leader can report durability over the hole.
    last_error_ = st;
  }
  cv_.notify_all();
  return st;
}

Status Wal::Replay(const RecordFn& fn, WalReplayStats* stats) const {
  WalReplayStats local;
  WalReplayStats* out = stats != nullptr ? stats : &local;
  *out = WalReplayStats();
  DYNOPT_ASSIGN_OR_RETURN(uint64_t start_lsn, ReadStartLsn(fd_));
  // One record at a time through pread: replay memory does not grow with
  // the log.
  return ScanRecords(
      [this](uint64_t offset, size_t n, std::string* buf) {
        buf->resize(n);
        ssize_t got = ::pread(fd_, buf->data(), n, static_cast<off_t>(offset));
        return std::string_view(buf->data(),
                                got > 0 ? static_cast<size_t>(got) : 0);
      },
      kHeaderSize, start_lsn, fn, out);
}

Status Wal::Reset(uint64_t restart_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::IOError("simulated crash: wal is offline");
  }
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("wal ftruncate failed");
  }
  if (restart_lsn != 0) next_lsn_ = restart_lsn;
  DYNOPT_RETURN_IF_ERROR(WriteHeader(next_lsn_));
  if (::fsync(fd_) != 0) return Status::IOError("wal fsync failed");
  pending_.clear();
  pending_commits_ = 0;
  durable_lsn_ = next_lsn_ - 1;
  size_ = kHeaderSize;
  return Status::OK();
}

Result<bool> Wal::LatestCommittedImage(PageId page, PageData* out) const {
  // Stage the newest image seen for the page; promote it only when a
  // commit record follows — the same staged->applied discipline recovery
  // uses, collapsed to a single page.
  bool staged = false;
  bool found = false;
  PageData pending;
  DYNOPT_RETURN_IF_ERROR(Replay(
      [&](const WalRecordView& rec) {
        if (rec.type == WalRecordType::kPageImage && rec.page == page &&
            rec.payload.size() == kPageSize) {
          std::memcpy(pending.data(), rec.payload.data(), kPageSize);
          staged = true;
        } else if (rec.type == WalRecordType::kCommit && staged) {
          std::memcpy(out->data(), pending.data(), kPageSize);
          found = true;
          staged = false;
        }
        return Status::OK();
      },
      nullptr));
  return found;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

}  // namespace dynopt
