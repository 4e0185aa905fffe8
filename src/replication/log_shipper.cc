#include "replication/log_shipper.h"

#include <chrono>
#include <thread>
#include <vector>

#include "durability/wal.h"
#include "obs/metrics.h"

namespace dynopt {

LogShipper::LogShipper(std::string archive_dir, StandbyDatabase* standby,
                       LogShipperOptions options)
    : archive_dir_(std::move(archive_dir)),
      reader_(archive_dir_),
      standby_(standby),
      options_(options),
      rng_(options.faults.seed) {
  if (MetricsRegistry* registry = standby_->metrics()) {
    m_shipped_ = registry->counter("replication.segments_shipped");
    m_faults_ = registry->counter("replication.shipper_faults");
    m_redeliveries_ = registry->counter("replication.shipper_redeliveries");
  }
}

Status LogShipper::DeliverClean(const std::string& bytes, bool sealed,
                                uint64_t expected_end_lsn,
                                const std::string& label) {
  DYNOPT_RETURN_IF_ERROR(
      standby_->ApplySegmentBytes(bytes, sealed, expected_end_lsn, label));
  ++stats_.deliveries;
  Bump(m_shipped_);
  return Status::OK();
}

Status LogShipper::Deliver(const std::string& bytes, bool sealed,
                           uint64_t expected_end_lsn, const std::string& label,
                           bool allow_destructive_faults) {
  const ShipperFaultOptions& faults = options_.faults;
  if (rng_.NextBool(faults.delay_p)) {
    ++stats_.delayed;
    ++stats_.faults_injected;
    Bump(m_faults_);
    std::this_thread::sleep_for(std::chrono::microseconds(faults.delay_micros));
  }

  // Destructive faults mangle a copy, expect the standby's typed refusal,
  // then fall through to a clean redelivery. Only sealed segments are
  // mangled: the manifest vouches for their content, so the standby can
  // (and must) detect the damage; an unsealed tail is allowed to be torn.
  bool rejected = false;
  if (allow_destructive_faults && sealed &&
      bytes.size() > kArchiveSegmentHeaderSize) {
    if (rng_.NextBool(faults.corrupt_p)) {
      std::string bad = bytes;
      size_t region = bad.size() - kArchiveSegmentHeaderSize;
      bad[kArchiveSegmentHeaderSize + region / 2] ^= 0x5A;
      ++stats_.corrupted;
      ++stats_.faults_injected;
      Bump(m_faults_);
      Status st =
          standby_->ApplySegmentBytes(bad, sealed, expected_end_lsn, label);
      if (st.IsCorruption()) {
        ++stats_.typed_rejections;
        rejected = true;
      } else if (!st.ok()) {
        return st;  // wrong type: not the refusal the fault should provoke
      }
    } else if (rng_.NextBool(faults.truncate_p)) {
      size_t region = bytes.size() - kArchiveSegmentHeaderSize;
      std::string bad =
          bytes.substr(0, kArchiveSegmentHeaderSize + (region * 3) / 5);
      ++stats_.truncated;
      ++stats_.faults_injected;
      Bump(m_faults_);
      Status st =
          standby_->ApplySegmentBytes(bad, sealed, expected_end_lsn, label);
      if (st.IsCorruption()) {
        ++stats_.typed_rejections;
        rejected = true;
      } else if (!st.ok()) {
        return st;
      }
    }
  }
  if (rejected) {
    ++stats_.redeliveries;
    Bump(m_redeliveries_);
  }

  if (rng_.NextBool(faults.duplicate_p)) {
    ++stats_.duplicated;
    ++stats_.faults_injected;
    Bump(m_faults_);
    // First copy applies (or is itself a duplicate of history); the second
    // below must be absorbed idempotently.
    DYNOPT_RETURN_IF_ERROR(
        DeliverClean(bytes, sealed, expected_end_lsn, label));
  }
  return DeliverClean(bytes, sealed, expected_end_lsn, label);
}

Result<uint64_t> LogShipper::Pump() {
  DYNOPT_ASSIGN_OR_RETURN(ArchiveManifest manifest, reader_.ReadManifest());

  std::vector<const ArchiveSegmentInfo*> pending;
  for (const ArchiveSegmentInfo& seg : manifest.segments) {
    if (seg.end_lsn > standby_->applied_lsn()) pending.push_back(&seg);
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    const ArchiveSegmentInfo& seg = *pending[i];
    std::string label =
        ArchiveSegmentLabel(seg.start_lsn, seg.end_lsn, manifest.timeline);
    DYNOPT_ASSIGN_OR_RETURN(std::string bytes,
                            reader_.ReadSealedSegment(manifest, seg));

    // Reorder fault: hand the *next* segment over first. The standby must
    // refuse the gap typed; its own turn through this loop redelivers it.
    if (i + 1 < pending.size() && rng_.NextBool(options_.faults.reorder_p)) {
      const ArchiveSegmentInfo& next = *pending[i + 1];
      DYNOPT_ASSIGN_OR_RETURN(std::string next_bytes,
                              reader_.ReadSealedSegment(manifest, next));
      std::string next_label =
          ArchiveSegmentLabel(next.start_lsn, next.end_lsn, manifest.timeline);
      ++stats_.reordered;
      ++stats_.faults_injected;
      Bump(m_faults_);
      Status st = standby_->ApplySegmentBytes(next_bytes, /*sealed=*/true,
                                              next.end_lsn, next_label);
      if (st.IsInvalidArgument()) {
        ++stats_.typed_rejections;
        ++stats_.redeliveries;  // its own loop turn is the clean redelivery
        Bump(m_redeliveries_);
      } else if (!st.ok()) {
        return st;
      }
    }

    DYNOPT_RETURN_IF_ERROR(Deliver(bytes, /*sealed=*/true, seg.end_lsn, label,
                                   /*allow_destructive_faults=*/true));
  }

  // The unsealed current segment ships too, so standby lag is one commit
  // batch rather than one segment.
  DYNOPT_ASSIGN_OR_RETURN(std::string tail, reader_.ReadCurrentTail(manifest));
  if (!tail.empty()) {
    std::string label =
        ArchiveSegmentFileName(manifest.sealed_through_lsn + 1) + "(tail)";
    // The tail may legitimately be torn mid-record, so only
    // non-destructive faults (delay, duplicate) apply to it.
    DYNOPT_RETURN_IF_ERROR(Deliver(tail, /*sealed=*/false, 0, label,
                                   /*allow_destructive_faults=*/false));
  }

  UpdateLagGauges(manifest);
  return standby_->applied_lsn();
}

Result<uint64_t> LogShipper::PumpUntilCaughtUp(size_t max_rounds) {
  for (size_t round = 0;; ++round) {
    DYNOPT_ASSIGN_OR_RETURN(uint64_t durable, reader_.DurableEndLsn());
    if (standby_->applied_lsn() >= durable) return standby_->applied_lsn();
    if (round >= max_rounds) {
      return Status::Internal(
          "standby failed to catch up after " + std::to_string(max_rounds) +
          " shipping sweeps (applied lsn " +
          std::to_string(standby_->applied_lsn()) + ", archive durable end " +
          std::to_string(durable) + ")");
    }
    DYNOPT_RETURN_IF_ERROR(Pump().status());
  }
}

void LogShipper::UpdateLagGauges(const ArchiveManifest& manifest) {
  MetricsRegistry* registry = standby_->metrics();
  if (registry == nullptr) return;
  uint64_t applied = standby_->applied_lsn();
  uint64_t lag_bytes = 0;
  for (const ArchiveSegmentInfo& seg : manifest.segments) {
    if (seg.end_lsn > applied) lag_bytes += seg.bytes;
  }
  uint64_t shipped_end = manifest.sealed_through_lsn;
  Result<std::string> tail = reader_.ReadCurrentTail(manifest);
  if (tail.ok() && tail->size() > kArchiveSegmentHeaderSize) {
    size_t valid_bytes = 0;
    uint64_t records = 0;
    Status scan = WalScanRecords(
        std::string_view(*tail).substr(kArchiveSegmentHeaderSize),
        manifest.sealed_through_lsn + 1,
        [&](const WalRecordView&) -> Status {
          ++records;
          return Status::OK();
        },
        &valid_bytes, nullptr);
    if (scan.ok()) {
      shipped_end += records;
      if (shipped_end > applied) lag_bytes += valid_bytes;
    }
  }
  registry->Set("replication.shipped_lsn", shipped_end);
  registry->Set("replication.lag_bytes", lag_bytes);
}

}  // namespace dynopt
