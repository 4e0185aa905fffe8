// Profiling observatory: overhead gate, live telemetry, profile exports.
//
// Part 1 — overhead gate. The standard concurrent FAMILIES workload runs
// with span profiling + profile-store deposits off and on, in interleaved
// off/on pairs. The gate reads the median per-pair throughput overhead and
// requires it at or below 5%; a single pair swings by tens of percent on a
// shared host, the median of the pairs does not. Every run must produce
// the same result hashes. The binary exits non-zero past either gate.
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
//   off.qps / on.qps               median workload throughput per mode
//   profile.overhead_pct           median of 100 * (1 - on/off) per pair,
//                                  gate <= 5
//   profile.overhead_pct_q1/_q3    the per-pair quartiles
//   telemetry.snapshots            ticker samples in the measured run
//   telemetry.final_qps            last interval's throughput
//   profiles.classes               distinct query classes aggregated
//   series.telemetry               the JSON time series itself

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "catalog/table.h"
#include "core/explain.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "harness.h"
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
// Interleaved off/on pairs the overhead gate reads its median over. Single
// pairs on a shared host spread over +-10%; with 101 pairs the median's
// own spread stays well inside the 5% bound.
constexpr int kPairs = 101;

Status Run(Report* report) {
  std::printf("=== profiling observatory: overhead, telemetry, exports ===\n\n");

  DatabaseOptions options;
  options.pool_pages = 4096;
  Database db(options);
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          BuildFamilies(&db, kRows, /*seed=*/42));
  for (const char* col : {"id", "age", "income"}) {
    DYNOPT_RETURN_IF_ERROR(
        table->CreateIndex(std::string("by_") + col, {col}).status());
  }
  std::printf("database: %lld rows, %zu pages, 3 indexes\n\n",
              static_cast<long long>(kRows), db.page_count());

  // ---- Part 1: profiling overhead, median over interleaved off/on pairs.
  SessionWorkloadOptions off;
  off.sessions = kSessions;
  off.queries_per_session = kQueries;
  off.seed = 7;
  off.concurrent = true;
  off.retrieval.profile = false;
  SessionWorkloadOptions on = off;
  on.retrieval.profile = true;

  // The warmup fills the pool and fixes the hashes every run must match.
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport warm,
                          RunSessionWorkload(&db, table, off));
  bool hashes_match = true;
  auto qps = [&](const SessionWorkloadOptions& mode) -> Result<double> {
    DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport r,
                            RunSessionWorkload(&db, table, mode));
    for (size_t i = 0; i < r.sessions.size(); ++i) {
      hashes_match &= r.sessions[i].result_hash == warm.sessions[i].result_hash;
    }
    return r.queries_per_second;
  };
  DYNOPT_ASSIGN_OR_RETURN(
      Interleaved runs,
      RunInterleaved(
          kPairs, [&] { return qps(off); }, [&] { return qps(on); }));
  std::vector<double> overhead;
  for (int i = 0; i < kPairs; ++i) {
    overhead.push_back(100.0 * (1.0 - runs.b[i] / runs.a[i]));
  }
  std::printf("%12s %12s   (median of %d interleaved pairs)\n", "mode", "qps",
              kPairs);
  report->Print("off.qps", Quantile(runs.a, 0.5), " profile-off %12.0f");
  report->Print("on.qps", Quantile(runs.b, 0.5), "  profile-on %12.0f");
  double overhead_pct = report->PrintMedian(
      "profile.overhead_pct", overhead,
      "\nprofiling overhead: median %.1f%% per pair, quartiles %.1f%% / "
      "%.1f%% (gate <= 5%%)\n");
  report->Gate(hashes_match, "a run's result hashes differ from the warm-up's");
  report->Gate(overhead_pct <= 5.0, "profiling overhead %.1f%% > 5%%",
               overhead_pct);

  // ---- Part 2: live telemetry over a governed workload.
  SessionWorkloadOptions tw = on;
  tw.queries_per_session = 400;
  tw.governed = true;
  tw.telemetry = true;
  tw.telemetry_interval_micros = 5000;
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport tr,
                          RunSessionWorkload(&db, table, tw));
  std::printf("%s\n", RenderWorkloadTop(tr.telemetry, "FAMILIES workload")
                          .c_str());
  report->Add("telemetry.snapshots", static_cast<double>(tr.telemetry.size()));
  report->Add("telemetry.final_qps",
              tr.telemetry.empty() ? 0 : tr.telemetry.back().interval_qps);
  report->Add("workload.qps", tr.queries_per_second);
  report->Add("workload.p50_us", tr.p50_latency_micros);
  report->Add("workload.p99_us", tr.p99_latency_micros);
  report->AddJson("telemetry", TelemetryToJson(tr.telemetry));

  // ---- Part 3: EXPLAIN ANALYZE for one competition query + dashboard.
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{60}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{120000})))});
  spec.projection = {0, 1, 2};
  spec.goal = OptimizationGoal::kFastFirst;  // force the §6 race
  DynamicRetrieval engine(&db, spec);
  DYNOPT_RETURN_IF_ERROR(Drain(&db, &engine, {}).status());
  std::printf("%s\n", ExplainAnalyze(engine, db.cost_weights()).c_str());

  size_t classes = db.profiles() != nullptr ? db.profiles()->size() : 0;
  report->Add("profiles.classes", static_cast<double>(classes));
  DashboardOptions dopts;
  dopts.title = "profiling observatory";
  dopts.profiles = db.profiles();
  if (db.metrics() != nullptr) {
    std::printf("%s\n", RenderDashboard(*db.metrics(), dopts).c_str());
  }

  std::printf(
      "\nProfiling is priced at the scheduler-quantum granularity (two\n"
      "clock reads per Pump), so the span tree rides along under the 5%%\n"
      "gate; the class store turns those spans into workload memory.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("profile");
  return report.Finish(dynopt::Run(&report));
}
