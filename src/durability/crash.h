// Crash fault injection for the durability layer.
//
// A CrashController simulates the process dying at a registered point in
// the WAL / flush / checkpoint paths. Firing a point flips the controller
// into the "crashed" state: the call that hit the point fails with a
// simulated-crash IOError, and every later I/O through a component holding
// the controller fails the same way — exactly as if the kernel had pulled
// the plug. The test harness then drops the engine (its destructor flushes
// are inert against a crashed store), reopens the database file, and
// asserts recovery reproduced a committed state.
//
// kWalTornWrite is special: the WAL writes the first half of the batch
// bytes before dying, planting a torn record for recovery's checksum scan
// to detect and discard.

#ifndef DYNOPT_DURABILITY_CRASH_H_
#define DYNOPT_DURABILITY_CRASH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "util/status.h"

namespace dynopt {

enum class CrashPoint : uint8_t {
  kWalBeforeWrite = 0,       // commit batch never reaches the log file
  kWalTornWrite,             // half the batch bytes reach the log file
  kWalBeforeSync,            // batch written, fsync never issued
  kWalAfterSync,             // commit durable; crash before acking
  kStorePageWrite,           // during a data-file page write (flush/evict)
  kStoreSync,                // during the data-file fsync
  kCheckpointBeforeSuperblock,  // data durable, superblock not yet bumped
  kCheckpointAfterSuperblock,   // superblock bumped, WAL not yet reset
  // Replication points. kArchiveAppend fires on the primary between the
  // WAL fsync and the archive append, so the batch is locally durable but
  // never shipped — the commit is unacknowledged and must not survive a
  // failover. The standby points fire on the warm standby's own store:
  // mid segment apply (pages written, replay LSN not yet persisted) and
  // mid promote (timeline fenced, superblock not yet rewritten).
  kArchiveAppend,
  kStandbyApplySegment,
  kPromoteBeforeSuperblock,
};

/// The local crash-recovery matrix (reopen the same file, redo from the
/// WAL). The replication points are exercised by their own matrices —
/// kFailoverCrashPoints in workload/scenario.h and the standby points
/// directly — because they never fire in an unreplicated run.
inline constexpr CrashPoint kAllCrashPoints[] = {
    CrashPoint::kWalBeforeWrite,
    CrashPoint::kWalTornWrite,
    CrashPoint::kWalBeforeSync,
    CrashPoint::kWalAfterSync,
    CrashPoint::kStorePageWrite,
    CrashPoint::kStoreSync,
    CrashPoint::kCheckpointBeforeSuperblock,
    CrashPoint::kCheckpointAfterSuperblock,
};

std::string_view CrashPointName(CrashPoint p);

class CrashController {
 public:
  CrashController() = default;
  CrashController(const CrashController&) = delete;
  CrashController& operator=(const CrashController&) = delete;

  /// Arms the controller to fire at the (skip_hits + 1)-th execution of
  /// `p`. Re-arming replaces the previous setting.
  void Arm(CrashPoint p, int skip_hits = 0);

  /// Clears arming and the crashed state (for harness reuse).
  void Reset();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// The point that fired (meaningful only when crashed()).
  CrashPoint fired() const { return fired_; }

  /// Instrumentation sites call this. Returns the simulated-crash error
  /// when this execution fires the armed point — or when the controller
  /// already crashed (all post-crash I/O fails).
  Status Hit(CrashPoint p);

  /// The torn-write site: true when this execution should perform its
  /// partial write and then call ForceCrash(p).
  bool HitTear(CrashPoint p);

  /// Marks the controller crashed at `p` and returns the error to
  /// propagate.
  Status ForceCrash(CrashPoint p);

 private:
  mutable std::mutex mu_;
  bool armed_ = false;
  CrashPoint point_ = CrashPoint::kWalBeforeWrite;
  int remaining_ = 0;
  std::atomic<bool> crashed_{false};
  CrashPoint fired_ = CrashPoint::kWalBeforeWrite;
};

/// Null-safe instrumentation idiom (controllers are optional everywhere).
inline Status CrashHit(CrashController* c, CrashPoint p) {
  return c != nullptr ? c->Hit(p) : Status::OK();
}

}  // namespace dynopt

#endif  // DYNOPT_DURABILITY_CRASH_H_
