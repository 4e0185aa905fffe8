// Profiling observatory: overhead gate, live telemetry, profile exports.
//
// Part 1 — overhead gate. The standard concurrent FAMILIES workload runs
// with span profiling + profile-store deposits off and on, interleaved
// best-of-5 per mode. The issue gates the throughput overhead at <= 5%;
// this binary exits non-zero past the gate, so scripts/bench.sh (and the
// CI job) fail loudly instead of letting profiling cost creep in.
//
// Part 2 — live telemetry. A longer governed workload runs with the
// telemetry ticker sampling every 5 ms; the series lands in
// BENCH_profile.json under series.telemetry and renders as the ASCII
// "top" view here.
//
// Part 3 — profile exports. One competition query is drained and its
// EXPLAIN ANALYZE (span tree, est vs actual, competition verdict) is
// printed, followed by the query-class dashboard section fed by the
// workload's ProfileStore deposits.
//
// Reported to BENCH_profile.json:
//   off.qps / on.qps               workload throughput per mode
//   profile.overhead_pct           100 * (1 - on/off), gate <= 5
//   telemetry.snapshots            ticker samples in the measured run
//   telemetry.final_qps            last interval's throughput
//   profiles.classes               distinct query classes aggregated
//   series.telemetry               the JSON time series itself

#include <algorithm>
#include <cstdio>
#include <string>

#include "catalog/database.h"
#include "catalog/table.h"
#include "core/explain.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "obs/bench_report.h"
#include "obs/dashboard.h"
#include "obs/profile_store.h"
#include "obs/telemetry.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 20000;
constexpr size_t kSessions = 4;
constexpr size_t kQueries = 150;
constexpr int kRounds = 5;

bool Run(int* exit_code) {
  std::printf("=== profiling observatory: overhead, telemetry, exports ===\n\n");
  BenchReport report("profile");

  DatabaseOptions options;
  options.pool_pages = 4096;
  Database db(options);
  auto table = BuildFamilies(&db, kRows, /*seed=*/42);
  if (!table.ok() || !(*table)->CreateIndex("by_id", {"id"}).ok() ||
      !(*table)->CreateIndex("by_age", {"age"}).ok() ||
      !(*table)->CreateIndex("by_income", {"income"}).ok()) {
    std::printf("build failed\n");
    return false;
  }
  std::printf("database: %lld rows, %zu pages, 3 indexes\n\n",
              static_cast<long long>(kRows), db.page_count());

  // ---- Part 1: profiling overhead, interleaved best-of-5 per mode.
  SessionWorkloadOptions off;
  off.sessions = kSessions;
  off.queries_per_session = kQueries;
  off.seed = 7;
  off.concurrent = true;
  off.retrieval.profile = false;
  SessionWorkloadOptions on = off;
  on.retrieval.profile = true;

  auto warm = RunSessionWorkload(&db, *table, off);  // warm the pool
  if (!warm.ok()) {
    std::printf("warmup failed\n");
    return false;
  }
  double best_off = 0, best_on = 0;
  uint64_t hash_off = 0, hash_on = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto o = RunSessionWorkload(&db, *table, off);
    auto p = RunSessionWorkload(&db, *table, on);
    if (!o.ok() || !p.ok()) {
      std::printf("workload failed\n");
      return false;
    }
    best_off = std::max(best_off, o->queries_per_second);
    best_on = std::max(best_on, p->queries_per_second);
    hash_off = o->sessions[0].result_hash;
    hash_on = p->sessions[0].result_hash;
  }
  if (hash_off != hash_on) {
    std::printf("result hashes diverge with profiling on!\n");
    return false;
  }
  double overhead_pct = best_off > 0 ? 100.0 * (1.0 - best_on / best_off) : 0;
  std::printf("%12s %12s\n", "mode", "qps");
  std::printf("%12s %12.0f\n", "profile-off", best_off);
  std::printf("%12s %12.0f\n", "profile-on", best_on);
  std::printf("\nprofiling overhead: %.1f%% (issue gates <= 5%%)\n\n",
              overhead_pct);
  report.Add("off.qps", best_off);
  report.Add("on.qps", best_on);
  report.Add("profile.overhead_pct", overhead_pct);
  if (overhead_pct > 5.0) {
    std::printf("OVERHEAD GATE FAILED: %.1f%% > 5%%\n", overhead_pct);
    *exit_code = 1;
  }

  // ---- Part 2: live telemetry over a governed workload.
  SessionWorkloadOptions tw = on;
  tw.queries_per_session = 400;
  tw.governed = true;
  tw.telemetry = true;
  tw.telemetry_interval_micros = 5000;
  auto tr = RunSessionWorkload(&db, *table, tw);
  if (!tr.ok()) {
    std::printf("telemetry workload failed\n");
    return false;
  }
  std::printf("%s\n", RenderWorkloadTop(tr->telemetry, "FAMILIES workload")
                          .c_str());
  report.Add("telemetry.snapshots",
             static_cast<double>(tr->telemetry.size()));
  report.Add("telemetry.final_qps",
             tr->telemetry.empty() ? 0 : tr->telemetry.back().interval_qps);
  report.Add("workload.qps", tr->queries_per_second);
  report.Add("workload.p50_us", tr->p50_latency_micros);
  report.Add("workload.p99_us", tr->p99_latency_micros);
  report.AddJson("telemetry", TelemetryToJson(tr->telemetry));

  // ---- Part 3: EXPLAIN ANALYZE for one competition query + dashboard.
  RetrievalSpec spec;
  spec.table = *table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{60}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{120000})))});
  spec.projection = {0, 1, 2};
  spec.goal = OptimizationGoal::kFastFirst;  // force the §6 race
  DynamicRetrieval engine(&db, spec);
  if (!engine.Open({}).ok()) {
    std::printf("competition query failed to open\n");
    return false;
  }
  RowBatch batch;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    if (!more.ok() || !*more) break;
  }
  std::printf("%s\n", ExplainAnalyze(engine, db.cost_weights()).c_str());

  size_t classes = db.profiles() != nullptr ? db.profiles()->size() : 0;
  report.Add("profiles.classes", static_cast<double>(classes));
  DashboardOptions dopts;
  dopts.title = "profiling observatory";
  dopts.profiles = db.profiles();
  if (db.metrics() != nullptr) {
    std::printf("%s\n", RenderDashboard(*db.metrics(), dopts).c_str());
  }

  report.WriteFile();
  std::printf(
      "\nProfiling is priced at the scheduler-quantum granularity (two\n"
      "clock reads per Pump), so the span tree rides along under the 5%%\n"
      "gate; the class store turns those spans into workload memory.\n");
  return true;
}

}  // namespace
}  // namespace dynopt

int main() {
  int exit_code = 0;
  if (!dynopt::Run(&exit_code)) return 2;
  return exit_code;
}
