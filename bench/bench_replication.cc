// Replication: archive throughput, standby apply rate, lag under load,
// and failover RTO.
//
// Phases:
//   commit     archived primary commits a stream of batches; the archive
//              append rides the commit path, so the measured rate is the
//              semi-sync commit rate (WAL + archive durable per ack)
//   apply      a cold standby replays the whole archive; its apply rate
//              (records/s) must keep up with the primary or the standby
//              falls behind forever
//   lag        primary commits at three load levels while a shipper pumps
//              concurrently; the replication.lag_bytes gauge is sampled
//              after every commit (the lag-vs-load curve in EXPERIMENTS)
//   failover   the full failover scenario at a post-ack crash point:
//              promote the standby, reopen it as primary, replay the
//              session streams — reporting the measured RTO
//
// Gates (non-zero exit on failure):
//   standby apply rate >= 0.5x the primary commit rate
//   the failover scenario passes (acked state promoted, stale fenced)
//
// Reported to BENCH_replication.json.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/database.h"
#include "harness.h"
#include "obs/json.h"
#include "replication/log_shipper.h"
#include "replication/standby.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kBaseRows = 3000;
constexpr int kCommitRounds = 20;
constexpr int64_t kRowsPerCommit = 100;

Status Run(Report* report) {
  const std::string path = "bench_replication.db";
  const std::string dir = "bench_replication.archive";
  const std::string standby_path = "bench_replication.standby";
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  ::unlink(standby_path.c_str());

  // -- commit: archived primary under a sustained commit stream.
  DatabaseOptions dbo;
  dbo.pool_pages = 2048;
  dbo.path = path;
  dbo.archive_dir = dir;
  dbo.archive_segment_bytes = 256 * 1024;
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Create(std::move(dbo)));
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          BuildFamilies(db.get(), kBaseRows, 42));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  DYNOPT_RETURN_IF_ERROR(db->Commit());

  WalArchiveReader reader(dir);
  DYNOPT_ASSIGN_OR_RETURN(uint64_t lsn_before, reader.DurableEndLsn());
  Stopwatch commit_watch;
  int64_t rows = kBaseRows;
  for (int round = 0; round < kCommitRounds; ++round) {
    DYNOPT_RETURN_IF_ERROR(InsertScenarioRows(table, rows, kRowsPerCommit));
    DYNOPT_RETURN_IF_ERROR(db->Commit());
    rows += kRowsPerCommit;
  }
  double commit_secs = commit_watch.Seconds();
  DYNOPT_ASSIGN_OR_RETURN(uint64_t lsn_after, reader.DurableEndLsn());
  double commit_rate =
      static_cast<double>(lsn_after - lsn_before) / commit_secs;
  std::printf("primary: %d commits, %llu records archived in %.3fs "
              "(%.0f records/s)\n",
              kCommitRounds,
              static_cast<unsigned long long>(lsn_after - lsn_before),
              commit_secs, commit_rate);
  report->Add("primary_commit_records_per_sec", commit_rate);
  report->Add("primary_commit_rounds_per_sec", kCommitRounds / commit_secs);

  // -- apply: a cold standby replays the entire archive.
  StandbyOptions so;
  so.path = standby_path;
  so.pool_pages = 2048;
  DYNOPT_ASSIGN_OR_RETURN(auto standby,
                          StandbyDatabase::Open(std::move(so), dir));
  Stopwatch apply_watch;
  DYNOPT_ASSIGN_OR_RETURN(uint64_t applied, standby->CatchUp());
  double apply_secs = apply_watch.Seconds();
  double apply_rate = static_cast<double>(applied) / apply_secs;
  std::printf("standby: applied through lsn %llu in %.3fs (%.0f records/s)\n",
              static_cast<unsigned long long>(applied), apply_secs,
              apply_rate);
  report->Add("standby_apply_records_per_sec", apply_rate);

  // The cold replay covers the whole history (lsn 1..applied), commits
  // included, so the two rates are in the same unit: WAL records/s.
  double ratio = apply_rate / commit_rate;
  report->Print("apply_to_commit_ratio", ratio,
                "apply/commit ratio %.2fx (gate >= 0.5)");

  // -- lag: commit at increasing load with a live shipper pumping.
  LogShipper shipper(dir, standby.get(), LogShipperOptions());
  JsonWriter curve;
  curve.BeginArray();
  for (int64_t load : {50, 150, 300}) {
    std::atomic<bool> done{false};
    uint64_t peak_lag = 0;
    std::thread pump([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (!shipper.Pump().ok()) break;
        uint64_t lag = standby->metrics()->Value("replication.lag_bytes");
        if (lag > peak_lag) peak_lag = lag;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    Stopwatch watch;
    Status committed;
    for (int round = 0; round < 6 && committed.ok(); ++round) {
      committed = InsertScenarioRows(table, rows, load);
      if (committed.ok()) committed = db->Commit();
      rows += load;
    }
    double secs = watch.Seconds();
    done.store(true, std::memory_order_release);
    pump.join();
    DYNOPT_RETURN_IF_ERROR(committed);
    DYNOPT_RETURN_IF_ERROR(shipper.PumpUntilCaughtUp().status());
    uint64_t final_lag = standby->metrics()->Value("replication.lag_bytes");
    std::printf("lag: load %lld rows/commit -> peak %llu bytes, "
                "drained to %llu (%.3fs)\n",
                static_cast<long long>(load),
                static_cast<unsigned long long>(peak_lag),
                static_cast<unsigned long long>(final_lag), secs);
    curve.BeginObject();
    curve.KV("rows_per_commit", static_cast<uint64_t>(load));
    curve.KV("peak_lag_bytes", peak_lag);
    curve.KV("drained_lag_bytes", final_lag);
    curve.KV("commit_seconds", secs);
    curve.EndObject();
  }
  curve.EndArray();
  report->AddJson("lag_vs_load", curve.str());
  standby.reset();
  db.reset();

  // -- failover: full scenario at a post-ack point; the RTO is the
  //    promote-to-first-answer time.
  CrashScenarioOptions fo;
  fo.path = "bench_replication_failover.db";
  fo.rows = 1000;
  fo.extra_rows = 300;
  fo.sessions = 2;
  fo.queries_per_session = 12;
  fo.pool_pages = 1024;
  auto failover = RunCrashScenario(CrashPoint::kCheckpointBeforeSuperblock,
                                   RecoveryPath::kFailover, fo);
  if (!report->Gate(failover.ok(), "failover scenario: %s",
                    failover.status().ToString().c_str())) {
    return Status::OK();
  }
  std::printf("failover: RTO %.1f ms (timeline %llu, applied lsn %llu, "
              "stale primary fenced: %s)\n",
              failover->failover_micros / 1000.0,
              static_cast<unsigned long long>(failover->new_timeline),
              static_cast<unsigned long long>(failover->applied_lsn),
              failover->stale_primary_fenced ? "yes" : "no");
  report->Add("failover_rto_micros",
              static_cast<double>(failover->failover_micros));
  report->Add("failover_applied_lsn",
              static_cast<double>(failover->applied_lsn));
  report->Gate(ratio >= 0.5,
               "standby apply rate %.0f records/s is %.2fx the primary "
               "commit rate %.0f records/s (need >= 0.5x)",
               apply_rate, ratio, commit_rate);
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("replication");
  return report.Finish(dynopt::Run(&report));
}
