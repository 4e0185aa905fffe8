#include "workload/scenario.h"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <utility>

#include "replication/standby.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

/// The session streams, replayed one after another on the calling thread.
SessionWorkloadOptions SerialStreams(size_t sessions,
                                     size_t queries_per_session,
                                     uint64_t seed) {
  SessionWorkloadOptions o;
  o.sessions = sessions;
  o.queries_per_session = queries_per_session;
  o.seed = seed;
  o.concurrent = false;
  return o;
}

/// Per-session result hashes of a run in which every session must finish
/// cleanly (golden runs and committed-state hashes).
Result<std::vector<uint64_t>> SessionHashes(
    Database* db, Table* table, const SessionWorkloadOptions& streams) {
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport report,
                          RunSessionWorkload(db, table, streams));
  std::vector<uint64_t> hashes;
  for (const SessionOutcome& s : report.sessions) {
    if (!s.error.empty()) {
      return Status::Internal("workload session failed: " + s.error);
    }
    hashes.push_back(s.result_hash);
  }
  return hashes;
}

/// FAMILIES with indexes by_id and by_age, through its first (PRE) commit
/// (a no-op commit on an in-memory database).
Result<Table*> BuildBase(Database* db, int64_t rows, uint64_t seed) {
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildFamilies(db, rows, seed));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  DYNOPT_RETURN_IF_ERROR(db->Commit());
  return table;
}

DatabaseOptions FileOptions(const CrashScenarioOptions& o, std::string path,
                            std::string archive_dir,
                            CrashController* crash = nullptr) {
  DatabaseOptions dbo;
  dbo.pool_pages = o.pool_pages;
  dbo.path = std::move(path);
  dbo.crash = crash;
  dbo.archive_dir = std::move(archive_dir);
  dbo.archive_segment_bytes = o.archive_segment_bytes;
  return dbo;
}

struct Primary {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

/// A fresh file-backed base, archiving into `archive_dir` when non-empty.
Result<Primary> CreatePrimary(const CrashScenarioOptions& o, std::string path,
                              std::string archive_dir,
                              CrashController* crash) {
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      Database::Create(FileOptions(o, std::move(path), std::move(archive_dir),
                                   crash)));
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildBase(db.get(), o.rows, o.seed));
  return Primary{std::move(db), table};
}

Result<uint64_t> StateHash(const CrashScenarioOptions& o, Database* db,
                           Table* table) {
  return WorkloadResultHash(db, table, o.sessions, o.queries_per_session,
                            o.seed);
}

/// A warm standby at `standby_path` catches up from the archive through the
/// (possibly hostile) transport, then is promoted. Returns when the promote
/// began: the start of the RTO clock.
Result<std::chrono::steady_clock::time_point> ShipAndPromote(
    const CrashScenarioOptions& o, const std::string& archive_dir,
    const std::string& standby_path, CrashScenarioResult* res) {
  ::unlink(standby_path.c_str());
  ::unlink((standby_path + ".wal").c_str());
  StandbyOptions so;
  so.path = standby_path;
  so.pool_pages = o.pool_pages;
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<StandbyDatabase> standby,
                          StandbyDatabase::Open(std::move(so), archive_dir));
  LogShipperOptions lo;
  lo.faults = o.faults;
  LogShipper shipper(archive_dir, standby.get(), lo);
  DYNOPT_RETURN_IF_ERROR(shipper.PumpUntilCaughtUp().status());
  res->shipping = shipper.stats();

  const auto rto_start = std::chrono::steady_clock::now();
  DYNOPT_ASSIGN_OR_RETURN(StandbyPromotion promo, standby->Promote());
  res->new_timeline = promo.new_timeline;
  res->applied_lsn = promo.applied_lsn;
  return rto_start;
}

const char* StateName(CrashOutcome outcome) {
  return outcome == CrashOutcome::kPreState ? "PRE" : "POST";
}

uint64_t RegistryValue(Database* db, std::string_view name) {
  MetricsRegistry* r = db->metrics();
  return r != nullptr ? r->Value(name) : 0;
}

}  // namespace

Result<uint64_t> WorkloadResultHash(Database* db, Table* table,
                                    size_t sessions,
                                    size_t queries_per_session,
                                    uint64_t seed) {
  DYNOPT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> hashes,
      SessionHashes(db, table,
                    SerialStreams(sessions, queries_per_session, seed)));
  uint64_t fold = 0;
  for (uint64_t h : hashes) fold = Mix64(fold ^ h);
  return fold;
}

Status InsertScenarioRows(Table* table, int64_t start_row, int64_t extra) {
  for (int64_t i = 0; i < extra; ++i) {
    int64_t id = start_row + i;
    Record rec;
    rec.push_back(Value(id));
    rec.push_back(Value((id * 37) % 100));
    rec.push_back(Value((id * 9973) % 200001));
    rec.push_back(Value("city" + std::to_string(id % 50)));
    DYNOPT_RETURN_IF_ERROR(table->Insert(rec).status());
  }
  return Status::OK();
}

CrashOutcome ExpectedOutcome(CrashPoint point, RecoveryPath path) {
  switch (point) {
    case CrashPoint::kWalBeforeWrite:
    case CrashPoint::kWalTornWrite:
      // No batch byte is durable (a torn batch fails its checksum scan).
      return CrashOutcome::kPreState;
    case CrashPoint::kWalBeforeSync:
    case CrashPoint::kWalAfterSync:
    case CrashPoint::kArchiveAppend:
      // The batch is in the local WAL, so a restart replays it
      // (kWalBeforeSync too: the simulated crash does not revoke the
      // completed pwrite the way a real power cut might — the point still
      // proves replay of an unsynced-but-present tail). It was never
      // archived, hence never acknowledged, so failover must not
      // resurrect it.
      return path == RecoveryPath::kRestart ? CrashOutcome::kPostState
                                            : CrashOutcome::kPreState;
    case CrashPoint::kStorePageWrite:
    case CrashPoint::kStoreSync:
    case CrashPoint::kCheckpointBeforeSuperblock:
    case CrashPoint::kCheckpointAfterSuperblock:
      // The commit was durable (and archived, acknowledged) before the
      // checkpoint began.
      return CrashOutcome::kPostState;
    case CrashPoint::kStandbyApplySegment:
    case CrashPoint::kPromoteBeforeSuperblock:
      // Standby-side points never fire inside a primary commit, so the
      // scenario refuses them as never fired.
      break;
  }
  return CrashOutcome::kPostState;
}

Result<CrashScenarioResult> RunCrashScenario(
    CrashPoint point, RecoveryPath path, const CrashScenarioOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("crash scenario needs options.path");
  }
  const std::string point_name(CrashPointName(point));
  const bool failover = path == RecoveryPath::kFailover;
  const std::string archive_dir = failover ? options.path + ".archive" : "";
  CrashScenarioResult res;
  res.point = point;

  // 1. Golden twin (no crash, no archive): hash the two committed states.
  {
    DYNOPT_ASSIGN_OR_RETURN(
        Primary g, CreatePrimary(options, options.path + ".golden", "",
                                 nullptr));
    DYNOPT_ASSIGN_OR_RETURN(res.pre_hash,
                            StateHash(options, g.db.get(), g.table));
    DYNOPT_RETURN_IF_ERROR(
        InsertScenarioRows(g.table, options.rows, options.extra_rows));
    DYNOPT_RETURN_IF_ERROR(g.db->Commit());
    DYNOPT_ASSIGN_OR_RETURN(res.post_hash,
                            StateHash(options, g.db.get(), g.table));
  }

  // 2. The identical sequence with the point armed across commit 2 and the
  //    checkpoint.
  {
    CrashController crash;
    DYNOPT_ASSIGN_OR_RETURN(
        Primary p, CreatePrimary(options, options.path, archive_dir, &crash));
    crash.Arm(point);
    Status st = InsertScenarioRows(p.table, options.rows, options.extra_rows);
    if (st.ok()) st = p.db->Commit();
    if (st.ok() && !crash.crashed()) st = p.db->Checkpoint();
    if (!crash.crashed()) {
      return Status::Internal("crash point " + point_name +
                              " never fired (status: " + st.ToString() + ")");
    }
    res.crash_fired = true;
    // The dead engine drops here, before its controller; destructor
    // flushes are inert against the crashed store, exactly like a killed
    // process.
  }

  // 3. Bring the primary back: reopen the dead file (redo recovery), or
  //    promote a standby and reopen that. On failover the dead file is
  //    never reopened: the standby knows only what the archive holds.
  std::string revived_path = options.path;
  std::chrono::steady_clock::time_point rto_start;
  if (failover) {
    revived_path = options.path + ".standby";
    DYNOPT_ASSIGN_OR_RETURN(
        rto_start, ShipAndPromote(options, archive_dir, revived_path, &res));
  }
  DYNOPT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      Database::Open(FileOptions(options, revived_path, archive_dir),
                     &res.recovery));
  DYNOPT_ASSIGN_OR_RETURN(Table * table, db->GetTable("families"));
  res.recovered_rows = table->record_count();
  DYNOPT_ASSIGN_OR_RETURN(res.recovered_hash,
                          StateHash(options, db.get(), table));
  if (failover) {
    res.failover_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - rto_start)
            .count());
  }

  // 4. Exactly one committed state, and the one the point's contract names.
  if (res.recovered_hash == res.pre_hash &&
      res.recovered_rows == static_cast<uint64_t>(options.rows)) {
    res.outcome = CrashOutcome::kPreState;
  } else if (res.recovered_hash == res.post_hash &&
             res.recovered_rows ==
                 static_cast<uint64_t>(options.rows + options.extra_rows)) {
    res.outcome = CrashOutcome::kPostState;
  } else {
    return Status::Internal(
        "recovered state matches neither committed state (point " +
        point_name + ", rows " + std::to_string(res.recovered_rows) + ")");
  }
  const CrashOutcome want = ExpectedOutcome(point, path);
  if (res.outcome != want) {
    return Status::Internal("point " + point_name + " recovered the " +
                            StateName(res.outcome) +
                            " state but its contract requires " +
                            StateName(want));
  }
  if (!failover) return res;

  // 5. Continuity: the new timeline accepts fresh commits (WAL and archive
  //    continue at applied + 1 without a gap).
  DYNOPT_RETURN_IF_ERROR(InsertScenarioRows(
      table, static_cast<int64_t>(res.recovered_rows), /*extra=*/50));
  DYNOPT_RETURN_IF_ERROR(db->Commit());

  // 6. Fencing: the dead primary belongs to the old timeline; reopening it
  //    against the fenced archive must fail typed.
  Result<std::unique_ptr<Database>> stale =
      Database::Open(FileOptions(options, options.path, archive_dir));
  if (stale.ok()) {
    return Status::Internal(
        "stale primary reopened against the fenced archive (point " +
        point_name + ")");
  }
  if (!stale.status().IsFenced()) {
    return Status::Internal(
        "stale primary failed with the wrong type (want Fenced): " +
        stale.status().ToString());
  }
  res.stale_primary_fenced = true;
  return res;
}

Result<FaultScenarioResult> RunFaultScenario(
    const FaultProgram& program, const FaultScenarioOptions& options) {
  // 1. The base over the injecting store, pages classified (heap vs
  //    index) and frozen. The store pointer stays valid: the database owns
  //    the decorator for its whole life.
  auto owned = std::make_unique<FaultInjectingPageStore>(
      std::make_unique<MemPageStore>());
  FaultInjectingPageStore* faults = owned.get();
  DatabaseOptions dbo;
  dbo.pool_pages = options.pool_pages;
  Database db(std::move(dbo), std::move(owned));
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          BuildBase(&db, options.rows, options.seed));
  faults->ClassifyHeapPages(table->heap()->pages());
  faults->FreezeClassification();

  // 2. Golden twin: the same streams, serial, fault-free and ungoverned.
  SessionWorkloadOptions streams = SerialStreams(
      options.sessions, options.queries_per_session, options.seed);
  FaultScenarioResult res;
  DYNOPT_ASSIGN_OR_RETURN(res.golden_hashes,
                          SessionHashes(&db, table, streams));

  // 3. Cold cache, program armed, concurrent replay under per-query
  //    governance (the default options: degraded fallback is what turns a
  //    permanent index fault into a Tscan instead of an error).
  DYNOPT_RETURN_IF_ERROR(db.pool()->EvictAll());
  uint64_t retries0 = RegistryValue(&db, "governance.io_retries");
  uint64_t faults0 = RegistryValue(&db, "governance.io_faults");
  uint64_t fallbacks0 = RegistryValue(&db, "governance.strategy_fallbacks");
  uint64_t injected0 = faults->injected_faults();
  faults->SetProgram(program);
  streams.concurrent = true;
  streams.governed = true;
  auto ran = RunSessionWorkload(&db, table, streams);
  faults->ClearProgram();
  DYNOPT_RETURN_IF_ERROR(ran.status());
  res.faulted = std::move(*ran);

  res.io_retries = RegistryValue(&db, "governance.io_retries") - retries0;
  res.io_faults = RegistryValue(&db, "governance.io_faults") - faults0;
  res.strategy_fallbacks =
      RegistryValue(&db, "governance.strategy_fallbacks") - fallbacks0;
  res.injected_faults = faults->injected_faults() - injected0;

  // 4. Typed failures only, and zero-failure sessions are bit-identical to
  //    golden.
  for (size_t i = 0; i < res.faulted.sessions.size(); ++i) {
    const SessionOutcome& s = res.faulted.sessions[i];
    if (!s.error.empty()) {
      return Status::Internal("session " + std::to_string(i) +
                              " died on a non-typed error: " + s.error);
    }
    if (s.failed_queries == 0) {
      res.clean_sessions++;
      if (s.result_hash != res.golden_hashes[i]) {
        return Status::Internal(
            "session " + std::to_string(i) +
            " had no failures but diverged from its golden hash");
      }
    } else {
      res.sessions_with_failures++;
    }
  }

  // Whatever the program did, every unwind must have been clean: no pinned
  // pages survive a finished (or failed) query, and the pool's bookkeeping
  // still balances.
  if (db.pool()->PinnedPages() != 0) {
    return Status::Internal("faulted run leaked " +
                            std::to_string(db.pool()->PinnedPages()) +
                            " pinned pages");
  }
  DYNOPT_RETURN_IF_ERROR(db.pool()->CheckInvariants());
  return res;
}

}  // namespace dynopt
