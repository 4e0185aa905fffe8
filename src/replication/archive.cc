#include "replication/archive.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "durability/checksum.h"
#include "durability/file_io.h"
#include "util/coding.h"

namespace dynopt {

namespace {

constexpr uint32_t kSegmentMagic = 0x47535944;   // 'DYSG'
constexpr uint32_t kManifestMagic = 0x4D525944;  // 'DYRM'
constexpr uint32_t kArchiveVersion = 1;
constexpr size_t kManifestHeaderSize = 32;
constexpr char kManifestName[] = "MANIFEST";

/// Reads a whole file. NotFound on ENOENT so callers can distinguish an
/// archive gap from an I/O failure.
Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      int e = errno;
      ::close(fd);
      return Status::IOError("read " + path + ": " + std::strerror(e));
    }
    if (r == 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return out;
}

/// write-tmp + fsync + rename + fsync-dir: readers see the old bytes or
/// the new bytes, never a half-written file.
Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       std::string_view bytes, int dir_fd) {
  std::string tmp = dir + "/" + name + ".tmp";
  std::string final_path = dir + "/" + name;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  Status st = PwriteAll(fd, bytes.data(), bytes.size(), 0);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError("fsync " + tmp + ": " + std::strerror(errno));
  }
  ::close(fd);
  DYNOPT_RETURN_IF_ERROR(st);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + ": " + std::strerror(errno));
  }
  if (dir_fd >= 0 && ::fsync(dir_fd) != 0) {
    return Status::IOError("fsync archive dir: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

std::string SerializeManifest(uint64_t timeline, uint64_t sealed_through,
                              const std::vector<ArchiveSegmentInfo>& segments,
                              const std::vector<ArchiveBaseInfo>& bases) {
  std::string out;
  PutU32(&out, kManifestMagic);
  PutU32(&out, kArchiveVersion);
  PutU64(&out, timeline);  // fixed offset [8..16): the per-append fence pread
  PutU64(&out, sealed_through);
  PutU32(&out, static_cast<uint32_t>(segments.size()));
  PutU32(&out, static_cast<uint32_t>(bases.size()));
  for (const ArchiveSegmentInfo& s : segments) {
    PutU64(&out, s.start_lsn);
    PutU64(&out, s.end_lsn);
    PutU64(&out, s.bytes);
    PutU64(&out, s.checksum);
  }
  for (const ArchiveBaseInfo& b : bases) {
    PutU64(&out, b.lsn);
    PutU64(&out, b.bytes);
    PutU64(&out, b.checksum);
  }
  PutU64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<ArchiveManifest> ParseManifest(std::string_view bytes) {
  ByteReader r(bytes);
  ArchiveManifest m;
  uint32_t magic = 0, version = 0, seg_count = 0, base_count = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&m.timeline) ||
      !r.U64(&m.sealed_through_lsn) || !r.U32(&seg_count) ||
      !r.U32(&base_count)) {
    return Status::Corruption("archive manifest truncated");
  }
  if (magic != kManifestMagic || version != kArchiveVersion) {
    return Status::Corruption("archive manifest magic/version mismatch");
  }
  size_t body = kManifestHeaderSize + seg_count * 32ull + base_count * 24ull;
  if (bytes.size() != body + sizeof(uint64_t)) {
    return Status::Corruption("archive manifest size mismatch");
  }
  uint64_t sum = 0;
  if (!ByteReader(bytes.substr(body)).U64(&sum) ||
      sum != Fnv1a64(bytes.data(), body)) {
    return Status::Corruption("archive manifest checksum mismatch");
  }
  // The size check above covers every entry, so these reads cannot fail.
  for (uint32_t i = 0; i < seg_count; ++i) {
    ArchiveSegmentInfo s;
    if (!r.U64(&s.start_lsn) || !r.U64(&s.end_lsn) || !r.U64(&s.bytes) ||
        !r.U64(&s.checksum)) {
      return Status::Corruption("archive manifest truncated");
    }
    m.segments.push_back(s);
  }
  for (uint32_t i = 0; i < base_count; ++i) {
    ArchiveBaseInfo b;
    if (!r.U64(&b.lsn) || !r.U64(&b.bytes) || !r.U64(&b.checksum)) {
      return Status::Corruption("archive manifest truncated");
    }
    m.bases.push_back(b);
  }
  return m;
}

std::string BuildSegmentHeader(uint64_t timeline, uint64_t start_lsn) {
  std::string h;
  PutU32(&h, kSegmentMagic);
  PutU32(&h, kArchiveVersion);
  PutU64(&h, timeline);
  PutU64(&h, start_lsn);
  PutU64(&h, Fnv1a64(h.data(), kArchiveSegmentHeaderSize - 8));
  return h;
}

}  // namespace

std::string ArchiveSegmentFileName(uint64_t start_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%012" PRIu64, start_lsn);
  return buf;
}

std::string ArchiveBaseFileName(uint64_t lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "base-%012" PRIu64, lsn);
  return buf;
}

std::string ArchiveSegmentLabel(uint64_t start_lsn, uint64_t end_lsn,
                                uint64_t timeline) {
  return ArchiveSegmentFileName(start_lsn) + "[" + std::to_string(start_lsn) +
         ".." + std::to_string(end_lsn) + "]@t" + std::to_string(timeline);
}

Status ParseArchiveSegmentHeader(std::string_view bytes, uint64_t* timeline,
                                 uint64_t* start_lsn) {
  ByteReader r(bytes);
  uint32_t magic = 0, version = 0;
  uint64_t header_timeline = 0, header_start = 0, sum = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&header_timeline) ||
      !r.U64(&header_start) || !r.U64(&sum)) {
    return Status::Corruption("archive segment header truncated");
  }
  if (magic != kSegmentMagic || version != kArchiveVersion) {
    return Status::Corruption("archive segment magic/version mismatch");
  }
  if (sum != Fnv1a64(bytes.data(), kArchiveSegmentHeaderSize - 8)) {
    return Status::Corruption("archive segment header checksum mismatch");
  }
  if (timeline != nullptr) *timeline = header_timeline;
  if (start_lsn != nullptr) *start_lsn = header_start;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalArchiveReader

Result<ArchiveManifest> WalArchiveReader::ReadManifest() const {
  auto bytes = ReadWholeFile(dir_ + "/" + kManifestName);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      return Status::NotFound("archive manifest missing in " + dir_);
    }
    return bytes.status();
  }
  return ParseManifest(*bytes);
}

Result<std::string> WalArchiveReader::ReadSealedSegment(
    const ArchiveManifest& manifest, const ArchiveSegmentInfo& info) const {
  std::string label =
      ArchiveSegmentLabel(info.start_lsn, info.end_lsn, manifest.timeline);
  auto bytes = ReadWholeFile(dir_ + "/" + ArchiveSegmentFileName(info.start_lsn));
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      return Status::NotFound("archive gap: sealed segment " + label +
                              " missing; lsn range [" +
                              std::to_string(info.start_lsn) + ", " +
                              std::to_string(info.end_lsn) +
                              "] is unrecoverable from this archive");
    }
    return bytes.status();
  }
  if (bytes->size() < kArchiveSegmentHeaderSize + info.bytes) {
    return Status::Corruption(
        "sealed segment " + label + " truncated: " +
        std::to_string(bytes->size()) + " bytes on disk, manifest expects " +
        std::to_string(kArchiveSegmentHeaderSize + info.bytes));
  }
  uint64_t start = 0;
  Status hdr = ParseArchiveSegmentHeader(*bytes, nullptr, &start);
  if (!hdr.ok()) {
    return Status::Corruption("sealed segment " + label + ": " +
                              std::string(hdr.message()));
  }
  if (start != info.start_lsn) {
    return Status::Corruption("sealed segment " + label +
                              " header start lsn mismatch (" +
                              std::to_string(start) + ")");
  }
  if (Fnv1a64(bytes->data() + kArchiveSegmentHeaderSize, info.bytes) !=
      info.checksum) {
    return Status::Corruption("sealed segment " + label +
                              " record checksum mismatch");
  }
  bytes->resize(kArchiveSegmentHeaderSize + info.bytes);
  return bytes;
}

Result<std::string> WalArchiveReader::ReadCurrentTail(
    const ArchiveManifest& manifest) const {
  uint64_t start = manifest.sealed_through_lsn + 1;
  auto bytes = ReadWholeFile(dir_ + "/" + ArchiveSegmentFileName(start));
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) return std::string();
    return bytes.status();
  }
  // A current segment torn inside its header holds no recoverable
  // records; treat it as absent (the writer discards it on attach).
  uint64_t hdr_start = 0;
  if (!ParseArchiveSegmentHeader(*bytes, nullptr, &hdr_start).ok() ||
      hdr_start != start) {
    return std::string();
  }
  return bytes;
}

Result<std::string> WalArchiveReader::ReadBaseImage(
    const ArchiveBaseInfo& info) const {
  std::string name = ArchiveBaseFileName(info.lsn);
  auto bytes = ReadWholeFile(dir_ + "/" + name);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      return Status::NotFound("archive base image " + name + " missing");
    }
    return bytes.status();
  }
  if (bytes->size() != info.bytes ||
      Fnv1a64(bytes->data(), bytes->size()) != info.checksum) {
    return Status::Corruption("archive base image " + name +
                              " checksum/size mismatch");
  }
  return bytes;
}

Result<uint64_t> WalArchiveReader::DurableEndLsn() const {
  auto manifest = ReadManifest();
  DYNOPT_RETURN_IF_ERROR(manifest.status());
  auto tail = ReadCurrentTail(*manifest);
  DYNOPT_RETURN_IF_ERROR(tail.status());
  if (tail->empty()) return manifest->sealed_through_lsn;
  uint64_t start = manifest->sealed_through_lsn + 1;
  uint64_t records = 0;
  DYNOPT_RETURN_IF_ERROR(WalScanRecords(
      std::string_view(*tail).substr(kArchiveSegmentHeaderSize), start,
      [&records](const WalRecordView&) {
        ++records;
        return Status::OK();
      },
      nullptr, nullptr));
  return manifest->sealed_through_lsn + records;
}

// ---------------------------------------------------------------------------
// WalArchive (writer)

Result<std::unique_ptr<WalArchive>> WalArchive::Create(
    std::string dir, WalArchiveOptions options) {
  return Attach(std::move(dir), options, /*wipe=*/true);
}

Result<std::unique_ptr<WalArchive>> WalArchive::Open(
    std::string dir, WalArchiveOptions options) {
  return Attach(std::move(dir), options, /*wipe=*/false);
}

Result<std::unique_ptr<WalArchive>> WalArchive::Attach(
    std::string dir, WalArchiveOptions options, bool wipe) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create archive dir " + dir + ": " +
                           std::strerror(errno));
  }
  std::unique_ptr<WalArchive> archive(
      new WalArchive(std::move(dir), options));
  archive->dir_fd_ = ::open(archive->dir_.c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (archive->dir_fd_ < 0) {
    return Status::IOError("cannot open archive dir " + archive->dir_ + ": " +
                           std::strerror(errno));
  }

  if (wipe) {
    DIR* d = ::opendir(archive->dir_.c_str());
    if (d == nullptr) {
      return Status::IOError("cannot list archive dir " + archive->dir_);
    }
    while (struct dirent* ent = ::readdir(d)) {
      std::string_view name(ent->d_name);
      if (name.rfind("seg-", 0) == 0 || name.rfind("base-", 0) == 0 ||
          name.rfind(kManifestName, 0) == 0) {
        ::unlink((archive->dir_ + "/" + std::string(name)).c_str());
      }
    }
    ::closedir(d);
    DYNOPT_RETURN_IF_ERROR(archive->WriteManifestLocked());
    return archive;
  }

  auto manifest_bytes = ReadWholeFile(archive->dir_ + "/" + kManifestName);
  if (!manifest_bytes.ok()) {
    if (!manifest_bytes.status().IsNotFound()) return manifest_bytes.status();
    // No manifest: a brand-new archive directory. Initialize timeline 1.
    DYNOPT_RETURN_IF_ERROR(archive->WriteManifestLocked());
    return archive;
  }
  auto manifest = ParseManifest(*manifest_bytes);
  DYNOPT_RETURN_IF_ERROR(manifest.status());
  archive->timeline_ = manifest->timeline;
  archive->sealed_through_ = manifest->sealed_through_lsn;
  archive->segments_ = manifest->segments;
  archive->bases_ = manifest->bases;

  // Attach to the unsealed current segment, discarding any torn tail —
  // it is unsealed, so a crash tear there is the benign kind.
  uint64_t cur_start = archive->sealed_through_ + 1;
  std::string cur_path =
      archive->dir_ + "/" + ArchiveSegmentFileName(cur_start);
  auto cur_bytes = ReadWholeFile(cur_path);
  if (!cur_bytes.ok()) {
    if (!cur_bytes.status().IsNotFound()) return cur_bytes.status();
    return archive;  // no current segment yet
  }
  uint64_t hdr_timeline = 0;
  uint64_t hdr_start = 0;
  if (!ParseArchiveSegmentHeader(*cur_bytes, &hdr_timeline, &hdr_start).ok() ||
      hdr_start != cur_start) {
    // Header torn mid-create: no record ever became durable in this file.
    ::unlink(cur_path.c_str());
    return archive;
  }
  size_t valid = 0;
  uint64_t records = 0;
  std::string_view region =
      std::string_view(*cur_bytes).substr(kArchiveSegmentHeaderSize);
  DYNOPT_RETURN_IF_ERROR(WalScanRecords(
      region, cur_start,
      [&records](const WalRecordView&) {
        ++records;
        return Status::OK();
      },
      &valid, nullptr));
  if (records == 0) {
    ::unlink(cur_path.c_str());
    return archive;
  }
  int fd = ::open(cur_path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open current segment " + cur_path + ": " +
                           std::strerror(errno));
  }
  uint64_t keep = kArchiveSegmentHeaderSize + valid;
  if (cur_bytes->size() > keep) {
    if (::ftruncate(fd, static_cast<off_t>(keep)) != 0 || ::fsync(fd) != 0) {
      ::close(fd);
      return Status::IOError("current segment tail truncate failed");
    }
  }
  archive->cur_fd_ = fd;
  archive->cur_start_lsn_ = cur_start;
  archive->cur_end_lsn_ = cur_start + records - 1;
  archive->cur_bytes_ = valid;
  archive->cur_records_ = records;
  archive->cur_checksum_ = Fnv1a64(region.data(), valid);
  return archive;
}

WalArchive::~WalArchive() {
  if (cur_fd_ >= 0) ::close(cur_fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

void WalArchive::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
  if (registry == nullptr) {
    m_batches_ = m_bytes_ = m_sealed_ = m_fence_rejections_ = nullptr;
    m_base_images_ = nullptr;
    return;
  }
  m_batches_ = registry->counter("replication.archive_batches");
  m_bytes_ = registry->counter("replication.archive_bytes");
  m_sealed_ = registry->counter("replication.segments_sealed");
  m_fence_rejections_ = registry->counter("replication.fence_rejections");
  m_base_images_ = registry->counter("replication.base_images");
}

Status WalArchive::WriteManifestLocked() {
  std::string bytes =
      SerializeManifest(timeline_, sealed_through_, segments_, bases_);
  return WriteFileAtomic(dir_, kManifestName, bytes, dir_fd_);
}

Status WalArchive::OpenCurrentSegmentLocked(uint64_t start_lsn) {
  std::string path = dir_ + "/" + ArchiveSegmentFileName(start_lsn);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create segment " + path + ": " +
                           std::strerror(errno));
  }
  std::string header = BuildSegmentHeader(timeline_, start_lsn);
  Status st = PwriteAll(fd, header.data(), header.size(), 0);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  cur_fd_ = fd;
  cur_start_lsn_ = start_lsn;
  cur_end_lsn_ = start_lsn - 1;
  cur_bytes_ = 0;
  cur_records_ = 0;
  cur_checksum_ = kFnvOffset;
  return Status::OK();
}

Status WalArchive::AppendDurableBatch(std::string_view bytes,
                                      uint64_t first_lsn, uint64_t last_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::IOError("simulated crash: archive is offline");
  }
  DYNOPT_RETURN_IF_ERROR(CrashHit(crash_, CrashPoint::kArchiveAppend));
  if (bytes.empty() || last_lsn < first_lsn) {
    return Status::InvalidArgument("archive append: empty or inverted batch");
  }

  // Fence probe: re-read the on-disk manifest timeline. A promote rewrites
  // the manifest (rename), so a stale primary holding this handle sees the
  // new timeline here and is refused before a single byte lands.
  {
    char head[16];
    int fd = ::open((dir_ + "/" + kManifestName).c_str(),
                    O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("archive manifest unreadable: " +
                             std::string(std::strerror(errno)));
    }
    ssize_t got = ::pread(fd, head, sizeof(head), 0);
    ::close(fd);
    ByteReader r(std::string_view(head, got > 0 ? static_cast<size_t>(got)
                                                : 0));
    uint32_t magic = 0, version = 0;
    uint64_t disk_timeline = 0;
    if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&disk_timeline) ||
        magic != kManifestMagic) {
      return Status::Corruption("archive manifest header unreadable");
    }
    if (disk_timeline != timeline_) {
      Bump(m_fence_rejections_);
      return Status::Fenced(
          "archive fenced: writer is on timeline " +
          std::to_string(timeline_) + " but the archive has moved to " +
          std::to_string(disk_timeline) +
          " (a standby was promoted); this primary is stale");
    }
  }

  uint64_t expected = DurableEndLocked() + 1;
  if (first_lsn != expected) {
    return Status::Internal("archive append gap: expected lsn " +
                            std::to_string(expected) + ", batch starts at " +
                            std::to_string(first_lsn));
  }
  if (cur_fd_ < 0) {
    DYNOPT_RETURN_IF_ERROR(OpenCurrentSegmentLocked(first_lsn));
  }
  DYNOPT_RETURN_IF_ERROR(PwriteAll(cur_fd_, bytes.data(), bytes.size(),
                                   kArchiveSegmentHeaderSize + cur_bytes_));
  if (::fsync(cur_fd_) != 0) {
    return Status::IOError(std::string("archive fsync: ") +
                           std::strerror(errno));
  }
  cur_checksum_ = cur_bytes_ == 0
                      ? Fnv1a64(bytes.data(), bytes.size())
                      : Fnv1a64(bytes.data(), bytes.size(), cur_checksum_);
  cur_bytes_ += bytes.size();
  cur_records_ += last_lsn - first_lsn + 1;
  cur_end_lsn_ = last_lsn;
  Bump(m_batches_);
  Bump(m_bytes_, bytes.size());
  if (registry_ != nullptr) {
    registry_->Set("replication.archived_lsn", cur_end_lsn_);
  }
  if (cur_bytes_ >= options_.segment_bytes) {
    return SealCurrentSegmentLocked();
  }
  return Status::OK();
}

Status WalArchive::SealCurrentSegmentLocked() {
  if (cur_fd_ < 0) return Status::OK();
  std::string path = dir_ + "/" + ArchiveSegmentFileName(cur_start_lsn_);
  if (cur_records_ == 0) {
    ::close(cur_fd_);
    cur_fd_ = -1;
    ::unlink(path.c_str());
    return Status::OK();
  }
  ::close(cur_fd_);
  cur_fd_ = -1;
  ArchiveSegmentInfo info;
  info.start_lsn = cur_start_lsn_;
  info.end_lsn = cur_end_lsn_;
  info.bytes = cur_bytes_;
  info.checksum = cur_checksum_;
  segments_.push_back(info);
  sealed_through_ = cur_end_lsn_;
  DYNOPT_RETURN_IF_ERROR(WriteManifestLocked());
  Bump(m_sealed_);
  cur_start_lsn_ = cur_end_lsn_ = cur_bytes_ = cur_records_ = 0;
  cur_checksum_ = kFnvOffset;
  return Status::OK();
}

Status WalArchive::TruncateTailTo(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  return TruncateTailToLocked(lsn);
}

Status WalArchive::TruncateTailToLocked(uint64_t lsn) {
  if (cur_fd_ < 0 || cur_records_ == 0 || cur_end_lsn_ <= lsn) {
    return Status::OK();
  }
  if (lsn < sealed_through_) {
    return Status::Internal(
        "archive tail truncate to lsn " + std::to_string(lsn) +
        " would cut sealed history (sealed through " +
        std::to_string(sealed_through_) + ")");
  }
  std::string path = dir_ + "/" + ArchiveSegmentFileName(cur_start_lsn_);
  if (lsn < cur_start_lsn_) {
    // The whole current segment is uncommitted suffix: drop the file.
    ::close(cur_fd_);
    cur_fd_ = -1;
    ::unlink(path.c_str());
    cur_start_lsn_ = cur_end_lsn_ = cur_bytes_ = cur_records_ = 0;
    cur_checksum_ = kFnvOffset;
    return Status::OK();
  }
  // Rescan the record region to find the byte offset right after `lsn`.
  auto bytes = ReadWholeFile(path);
  DYNOPT_RETURN_IF_ERROR(bytes.status());
  std::string_view region =
      std::string_view(*bytes).substr(kArchiveSegmentHeaderSize, cur_bytes_);
  size_t keep = 0;
  uint64_t kept_records = 0;
  DYNOPT_RETURN_IF_ERROR(WalScanRecords(
      region, cur_start_lsn_,
      [&](const WalRecordView& rec) {
        if (rec.lsn <= lsn) {
          keep += WalRecordSize(rec);
          ++kept_records;
        }
        return Status::OK();
      },
      nullptr, nullptr));
  if (::ftruncate(cur_fd_,
                  static_cast<off_t>(kArchiveSegmentHeaderSize + keep)) != 0 ||
      ::fsync(cur_fd_) != 0) {
    return Status::IOError("archive tail truncate failed");
  }
  cur_bytes_ = keep;
  cur_records_ = kept_records;
  cur_end_lsn_ = cur_start_lsn_ + kept_records - 1;
  cur_checksum_ = Fnv1a64(region.data(), keep);
  return Status::OK();
}

Status WalArchive::FenceTimeline(uint64_t new_timeline,
                                 uint64_t truncate_to_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (new_timeline == timeline_) return Status::OK();  // crash-rerun no-op
  if (new_timeline < timeline_) {
    Bump(m_fence_rejections_);
    return Status::Fenced("archive is already on timeline " +
                          std::to_string(timeline_) +
                          "; cannot fence back to " +
                          std::to_string(new_timeline));
  }
  // Anything past the promoted standby's applied LSN was never
  // acknowledged to any client: discard it, then seal what remains so the
  // old timeline's history is immutable from here on.
  DYNOPT_RETURN_IF_ERROR(TruncateTailToLocked(truncate_to_lsn));
  DYNOPT_RETURN_IF_ERROR(SealCurrentSegmentLocked());
  timeline_ = new_timeline;
  return WriteManifestLocked();
}

Status WalArchive::WriteBaseImage(uint64_t lsn, const std::string& db_path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto bytes = ReadWholeFile(db_path);
  DYNOPT_RETURN_IF_ERROR(bytes.status());
  std::string name = ArchiveBaseFileName(lsn);
  DYNOPT_RETURN_IF_ERROR(WriteFileAtomic(dir_, name, *bytes, dir_fd_));
  ArchiveBaseInfo info;
  info.lsn = lsn;
  info.bytes = bytes->size();
  info.checksum = Fnv1a64(bytes->data(), bytes->size());
  auto it = std::find_if(bases_.begin(), bases_.end(),
                         [lsn](const ArchiveBaseInfo& b) {
                           return b.lsn == lsn;
                         });
  if (it != bases_.end()) {
    *it = info;
  } else {
    bases_.push_back(info);
    std::sort(bases_.begin(), bases_.end(),
              [](const ArchiveBaseInfo& a, const ArchiveBaseInfo& b) {
                return a.lsn < b.lsn;
              });
  }
  Bump(m_base_images_);
  return WriteManifestLocked();
}

uint64_t WalArchive::durable_end_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DurableEndLocked();
}

uint64_t WalArchive::timeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_;
}

uint64_t WalArchive::sealed_through_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_through_;
}

}  // namespace dynopt
