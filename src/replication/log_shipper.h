// Log shipping: the in-process transport pumping archived segments into a
// warm standby, with seeded fault injection on the delivery path.
//
// Each Pump() sweep reads the archive manifest, delivers every sealed
// segment the standby has not applied, then the unsealed current tail —
// so a standby tracks the primary to its last archived commit, not just
// to the last sealed segment. The transport deliberately mistreats
// deliveries under a deterministic seed:
//
//   delay      sleep before handing the segment over (lag, not loss)
//   duplicate  deliver the same segment twice (idempotent no-op)
//   reorder    deliver the next segment first (typed gap rejection)
//   truncate   cut a sealed segment short (typed Corruption)
//   corrupt    flip a byte in the record region (typed Corruption)
//
// Every injected fault must be survivable: the standby rejects the bad
// delivery with a typed error naming the segment (or absorbs it
// idempotently), the shipper redelivers clean, and the sweep continues.
// An *uninjected* typed failure is real archive damage and propagates.
//
// Pump() is single-threaded with respect to itself; the standby's apply
// lock makes delivery safe against concurrent readers.

#ifndef DYNOPT_REPLICATION_LOG_SHIPPER_H_
#define DYNOPT_REPLICATION_LOG_SHIPPER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "replication/archive.h"
#include "replication/standby.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynopt {

struct ShipperFaultOptions {
  uint64_t seed = 1;
  double delay_p = 0;
  double duplicate_p = 0;
  double reorder_p = 0;
  double truncate_p = 0;
  double corrupt_p = 0;
  uint32_t delay_micros = 200;
};

struct LogShipperOptions {
  ShipperFaultOptions faults;
};

struct ShipperStats {
  uint64_t deliveries = 0;        // segments handed to the standby cleanly
  uint64_t faults_injected = 0;   // total mistreated deliveries
  uint64_t delayed = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t truncated = 0;
  uint64_t corrupted = 0;
  uint64_t typed_rejections = 0;  // standby refused a delivery, typed
  uint64_t redeliveries = 0;      // clean retries after a rejection
};

class LogShipper {
 public:
  LogShipper(std::string archive_dir, StandbyDatabase* standby,
             LogShipperOptions options = LogShipperOptions());

  /// One shipping sweep (see file comment). Returns the standby's applied
  /// LSN afterwards. Typed rejections of injected faults are absorbed and
  /// retried; real archive damage propagates.
  Result<uint64_t> Pump();

  /// Pumps until the standby's applied LSN reaches the archive's durable
  /// end, failing (Internal) after `max_rounds` sweeps without progress.
  Result<uint64_t> PumpUntilCaughtUp(size_t max_rounds = 64);

  const ShipperStats& stats() const { return stats_; }

 private:
  /// Delivers one segment, possibly mistreated; redelivers clean after an
  /// expected typed rejection.
  Status Deliver(const std::string& bytes, bool sealed,
                 uint64_t expected_end_lsn, const std::string& label,
                 bool allow_destructive_faults);
  Status DeliverClean(const std::string& bytes, bool sealed,
                      uint64_t expected_end_lsn, const std::string& label);
  void UpdateLagGauges(const ArchiveManifest& manifest);

  std::string archive_dir_;
  WalArchiveReader reader_;
  StandbyDatabase* standby_;
  LogShipperOptions options_;
  Rng rng_;
  ShipperStats stats_;
  Counter* m_shipped_ = nullptr;
  Counter* m_faults_ = nullptr;
  Counter* m_redeliveries_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_REPLICATION_LOG_SHIPPER_H_
