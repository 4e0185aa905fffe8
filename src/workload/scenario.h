// Golden-twin scenarios: the end-to-end correctness harness under
// adversity.
//
// The engine may drop one strategy for another mid-query, yet it must
// return what a static plan returns — after a crash, a failover or an I/O
// fault too. Each scenario checks that against a *golden twin*: the same
// FAMILIES database (indexes by_id and by_age) built by the same operation
// sequence on a fresh store, without the adversity. Page and RID layouts
// of the two coincide, so raw equality of the session streams' result
// hashes is the strongest available check.
//
// Crash scenario (RunCrashScenario). The golden twin hashes two committed
// states: PRE (first commit) and POST (a second commit that adds rows).
// The adverse primary dies at the armed crash point inside the second
// commit or the checkpoint after it, and comes back along a RecoveryPath:
//   kRestart   reopen the same file (redo recovery);
//   kFailover  the primary was archiving: ship the archive into a warm
//              standby (optionally through the seeded fault injector),
//              promote it onto the next timeline and reopen it as the new
//              primary, then prove continuity (a fresh commit succeeds)
//              and fencing (reopening the dead primary fails typed
//              Fenced).
// The revived database must answer with exactly one committed state's
// hash and row count — never a torn in-between — and it must be the state
// ExpectedOutcome names for the point and path.
//
// Fault scenario (RunFaultScenario). An in-memory twin over a
// FaultInjectingPageStore records the serial, ungoverned, fault-free
// session hashes, then cools the cache, arms the program and replays the
// streams concurrently under per-query governance with degraded fallback
// on. Every session with zero failed queries must hash equal to its golden
// twin — retries and Tscan fallbacks may change tactics, never results —
// and sessions that lose queries lose them to typed errors (governance or
// I/O) only, with no pinned page left behind.

#ifndef DYNOPT_WORKLOAD_SCENARIO_H_
#define DYNOPT_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "durability/crash.h"
#include "durability/recovery.h"
#include "replication/log_shipper.h"
#include "storage/fault_store.h"
#include "workload/driver.h"

namespace dynopt {

/// Serial (deterministic) replay of the session query streams; returns the
/// fold of the per-session result hashes.
Result<uint64_t> WorkloadResultHash(Database* db, Table* table,
                                    size_t sessions,
                                    size_t queries_per_session,
                                    uint64_t seed);

/// The second commit's rows (ids start_row .. start_row + extra). Values
/// are arbitrary but reproducible — golden and adverse runs must insert
/// byte-identical records.
Status InsertScenarioRows(Table* table, int64_t start_row, int64_t extra);

/// How the dead primary comes back.
enum class RecoveryPath : uint8_t { kRestart, kFailover };

/// Which committed state the revived database is expected to match.
enum class CrashOutcome : uint8_t { kPreState, kPostState };

/// The contract per point and path. A restart replays whatever batch bytes
/// reached the WAL; a failover keeps exactly the acknowledged commits, and
/// a commit is acknowledged only once its batch is archived.
CrashOutcome ExpectedOutcome(CrashPoint point, RecoveryPath path);

/// The points the failover matrix arms inside the primary's second commit:
/// the restart matrix's (kAllCrashPoints) plus kArchiveAppend, the first
/// point whose restart and failover outcomes diverge.
inline constexpr CrashPoint kFailoverCrashPoints[] = {
    CrashPoint::kWalBeforeWrite,
    CrashPoint::kWalTornWrite,
    CrashPoint::kWalBeforeSync,
    CrashPoint::kWalAfterSync,
    CrashPoint::kArchiveAppend,
    CrashPoint::kStorePageWrite,
    CrashPoint::kStoreSync,
    CrashPoint::kCheckpointBeforeSuperblock,
    CrashPoint::kCheckpointAfterSuperblock,
};

struct CrashScenarioOptions {
  /// The adverse primary's file. Derived paths — `path + ".golden"` and,
  /// on failover, `path + ".standby"` and the archive directory
  /// `path + ".archive"` — are overwritten (".wal" siblings too).
  std::string path;
  /// FAMILIES rows committed in the first (PRE) commit.
  int64_t rows = 1500;
  /// Rows added by the second (POST, crashing) commit.
  int64_t extra_rows = 400;
  /// Serial query streams replayed to hash each state.
  size_t sessions = 2;
  size_t queries_per_session = 20;
  uint64_t seed = 1234;
  /// Generous enough that the build never evicts: eviction write-back
  /// would fire store crash points before the commit under test.
  size_t pool_pages = 1024;
  /// Failover only: small segments so the workload seals several
  /// (exercises manifest catch-up, not just tail shipping).
  uint64_t archive_segment_bytes = 64 * 1024;
  /// Failover only: delivery faults injected while the standby catches up.
  ShipperFaultOptions faults;
};

struct CrashScenarioResult {
  CrashPoint point = CrashPoint::kWalBeforeWrite;
  bool crash_fired = false;
  CrashOutcome outcome = CrashOutcome::kPreState;  // state actually matched
  uint64_t pre_hash = 0;
  uint64_t post_hash = 0;
  uint64_t recovered_hash = 0;
  uint64_t recovered_rows = 0;
  /// Redo recovery of the reopened (restart) or promoted (failover) file.
  RecoveryStats recovery;
  // Failover only:
  uint64_t new_timeline = 0;
  uint64_t applied_lsn = 0;
  /// Reopening the dead primary against the fenced archive failed typed.
  bool stale_primary_fenced = false;
  /// Promote() start to the new primary answering its first query stream
  /// (the recovery-time objective the bench reports).
  uint64_t failover_micros = 0;
  ShipperStats shipping;
};

/// Runs the crash scenario for `point` along `path`. Fails (non-OK),
/// naming the point, when the point never fired — a run that never
/// crashed would pass vacuously — or when recovery, shipping or promotion
/// failed, the revived state matches neither committed state or not the
/// one ExpectedOutcome names, continuity broke, or the stale primary was
/// not fenced.
Result<CrashScenarioResult> RunCrashScenario(
    CrashPoint point, RecoveryPath path, const CrashScenarioOptions& options);

struct FaultScenarioOptions {
  int64_t rows = 1500;
  size_t sessions = 3;
  size_t queries_per_session = 25;
  uint64_t seed = 1234;
  /// Small enough that the faulted run misses the cache and actually
  /// reads through the injecting store.
  size_t pool_pages = 96;
};

struct FaultScenarioResult {
  /// Golden per-session result hashes (serial, fault-free, ungoverned).
  std::vector<uint64_t> golden_hashes;
  /// The governed replay with the program armed.
  SessionWorkloadReport faulted;
  /// Sessions with zero failed queries — each verified hash-equal golden.
  uint64_t clean_sessions = 0;
  uint64_t sessions_with_failures = 0;
  /// governance.* counter deltas across the faulted run.
  uint64_t io_retries = 0;
  uint64_t io_faults = 0;
  uint64_t strategy_fallbacks = 0;
  /// Faults the store actually injected (0 means the program never bit).
  uint64_t injected_faults = 0;
};

/// Runs the fault scenario for `program`. Non-OK when the build fails, the
/// golden run is not clean, a faulted session dies on a non-typed error,
/// a zero-failure session's hash diverges from golden, or a pin leaked.
Result<FaultScenarioResult> RunFaultScenario(
    const FaultProgram& program, const FaultScenarioOptions& options);

}  // namespace dynopt

#endif  // DYNOPT_WORKLOAD_SCENARIO_H_
