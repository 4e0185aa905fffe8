// Graceful degradation under I/O faults and deadlines.
//
// Two questions the governance layer must answer with numbers:
//
//   1. What does a transient-fault-prone device cost? Concurrent governed
//      sessions run against transient read faults injected at 0%, 0.1%,
//      and 1% of pages (every class); the retry-with-backoff path absorbs
//      each fault, so the metric is throughput retained, not errors.
//   2. What do per-query deadlines buy? The same faulted workload runs
//      with and without a ~2ms statement deadline over a slow simulated
//      device; deadlines trade a fraction of completed queries for a
//      bounded tail (p99).
//
// Reported to BENCH_degradation.json:
//   rate_<r>.qps / .io_retries / .hit_rate    throughput per fault rate
//   rate_<r>.qps_retained                     qps / qps(rate 0)
//   deadline_off.p50_micros / .p99_micros     unbounded tail
//   deadline_on.p50_micros / .p99_micros      governed tail
//   deadline_on.trips                         queries the deadline stopped

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "harness.h"
#include "storage/fault_store.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 20000;
constexpr size_t kSessions = 4;
constexpr size_t kQueries = 25;
constexpr uint32_t kDeviceLatencyMicros = 30;

struct Setup {
  MemPageStore* inner = nullptr;           // latency knob
  FaultInjectingPageStore* faults = nullptr;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

Result<Setup> Build() {
  Setup s;
  auto inner = std::make_unique<MemPageStore>();
  s.inner = inner.get();
  auto store = std::make_unique<FaultInjectingPageStore>(std::move(inner));
  s.faults = store.get();
  // Small pool relative to the data so the workload actually reads through
  // the faulty device rather than out of cache.
  DatabaseOptions o;
  o.pool_pages = 128;
  s.db = std::make_unique<Database>(std::move(o), std::move(store));
  DYNOPT_ASSIGN_OR_RETURN(s.table, BuildFamilies(s.db.get(), kRows, 42));
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_age", {"age"}).status());
  s.faults->ClassifyHeapPages(s.table->heap()->pages());
  s.faults->FreezeClassification();
  return s;
}

uint64_t Metric(Database* db, std::string_view name) {
  MetricsRegistry* r = db->metrics();
  return r != nullptr ? r->Value(name) : 0;
}

Result<SessionWorkloadReport> RunGoverned(Setup& s, uint64_t deadline_micros) {
  DYNOPT_RETURN_IF_ERROR(s.db->pool()->EvictAll());
  SessionWorkloadOptions opts;
  opts.sessions = kSessions;
  opts.queries_per_session = kQueries;
  opts.seed = 1234;
  opts.concurrent = true;
  opts.governed = true;
  opts.governance.deadline_micros = deadline_micros;
  return RunSessionWorkload(s.db.get(), s.table, opts);
}

Status Run(Report* report) {
  std::printf("=== degradation under transient I/O faults ===\n\n");
  DYNOPT_ASSIGN_OR_RETURN(Setup s, Build());
  std::printf("FAMILIES %lld rows, %zu sessions x %zu queries, "
              "transient faults on any page class (2 failed reads/cycle)\n\n",
              static_cast<long long>(kRows), kSessions, kQueries);

  // Part 1: throughput vs transient fault rate. fail_reads=2 stays below
  // the pool's retry budget, so every query must still succeed.
  struct RateCase {
    const char* label;  // json key fragment
    double rate;
  };
  const RateCase rates[] = {{"0", 0.0}, {"0p1", 0.001}, {"1", 0.01}};
  double qps_clean = 0;
  std::printf("%8s %10s %10s %12s %10s\n", "rate", "queries", "qps",
              "io_retries", "retained");
  for (const RateCase& rc : rates) {
    uint64_t retries0 = Metric(s.db.get(), "governance.io_retries");
    if (rc.rate > 0) {
      FaultProgram p =
          FaultProgram::Transient(PageClass::kIndex, rc.rate, 2);
      p.any_class = true;
      s.faults->SetProgram(p);
    } else {
      s.faults->ClearProgram();
    }
    auto r = RunGoverned(s, /*deadline_micros=*/0);
    s.faults->ClearProgram();
    DYNOPT_RETURN_IF_ERROR(r.status());
    uint64_t retries = Metric(s.db.get(), "governance.io_retries") - retries0;
    if (rc.rate == 0.0) qps_clean = r->queries_per_second;
    double retained =
        qps_clean > 0 ? r->queries_per_second / qps_clean : 0;
    std::printf("%7s%% %10llu %10.1f %12llu %9.2f\n", rc.label,
                static_cast<unsigned long long>(r->total_queries),
                r->queries_per_second,
                static_cast<unsigned long long>(retries), retained);
    std::string key = std::string("rate_") + rc.label;
    report->Add(key + ".qps", r->queries_per_second);
    report->Add(key + ".io_retries", static_cast<double>(retries));
    report->Add(key + ".hit_rate", r->hit_rate);
    report->Add(key + ".qps_retained", retained);
  }

  // Part 2: the latency tail with and without a statement deadline, on a
  // slow device with 1% transient faults (backoff stretches the tail).
  std::printf("\n=== p99 latency with and without a 2ms deadline ===\n\n");
  s.inner->set_simulated_latency(kDeviceLatencyMicros, kDeviceLatencyMicros);
  FaultProgram p = FaultProgram::Transient(PageClass::kIndex, 0.01, 2);
  p.any_class = true;

  std::printf("%14s %10s %8s %12s %12s\n", "deadline", "queries", "trips",
              "p50_us", "p99_us");
  for (uint64_t deadline : {uint64_t{0}, uint64_t{2000}}) {
    s.faults->SetProgram(p);
    auto r = RunGoverned(s, deadline);
    s.faults->ClearProgram();
    DYNOPT_RETURN_IF_ERROR(r.status());
    const char* key = deadline == 0 ? "deadline_off" : "deadline_on";
    std::printf("%14s %10llu %8llu %12.0f %12.0f\n",
                deadline == 0 ? "none" : "2ms",
                static_cast<unsigned long long>(r->total_queries),
                static_cast<unsigned long long>(r->governance_trips),
                r->p50_latency_micros, r->p99_latency_micros);
    report->Add(std::string(key) + ".p50_micros", r->p50_latency_micros);
    report->Add(std::string(key) + ".p99_micros", r->p99_latency_micros);
    report->Add(std::string(key) + ".trips",
                static_cast<double>(r->governance_trips));
    report->Add(std::string(key) + ".completed",
                static_cast<double>(r->total_queries));
  }
  s.inner->set_simulated_latency(0, 0);
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("degradation");
  return report.Finish(dynopt::Run(&report));
}
