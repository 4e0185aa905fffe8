// Concurrent-session scaling: the sharded buffer pool under M independent
// retrieval streams sharing one database.
//
// The container this runs in may have a single CPU, so the scaling being
// measured is *I/O overlap*, not CPU parallelism: PageStore simulates a
// fixed device latency per physical read/write, and a pin releases its
// shard's lock across the device read. More sessions keep more simulated
// I/Os in flight — exactly how a real pool scales on a device with queue
// depth. Since no fault waits under a lock, a single-shard pool overlaps
// faults as well: the control shows what sharding adds on top, which is
// lock traffic on hits only. Every figure is reported, none is gated
// (three runs on a shared 4-core VM read speedup.t4 5.11-5.27x and a
// sharding gain of 0.99-1.13x). Reported to BENCH_concurrency.json:
//
//   threads_N.qps        aggregate queries/s with N concurrent sessions
//   speedup.tN           qps(N) / qps(1)
//   single_shard.*       the same 4-session run against a 1-shard pool
//   sharding.gain_4t     sharded qps / single-shard qps at 4 sessions

#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "harness.h"
#include "util/ascii_chart.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 40000;
constexpr size_t kPayloadBytes = 150;
constexpr size_t kQueriesPerSession = 12;
constexpr uint32_t kLatencyMicros = 100;

struct Setup {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

Result<Setup> Build(size_t pool_shards) {
  Setup s;
  s.db = std::make_unique<Database>(
      DatabaseOptions{.pool_pages = 256, .pool_shards = pool_shards});
  DYNOPT_ASSIGN_OR_RETURN(s.table,
                          BuildFamilies(s.db.get(), kRows, 42, kPayloadBytes));
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_age", {"age"}).status());
  // Latency goes on only after the build: loading 40k rows at 100us per
  // fault would dominate the bench without measuring anything.
  s.db->pool()->store()->set_simulated_latency(kLatencyMicros,
                                               kLatencyMicros);
  return s;
}

Result<SessionWorkloadReport> RunCold(Setup& s, size_t sessions,
                                      bool concurrent) {
  // Each configuration starts from a cold cache so its fault pattern is
  // comparable (the pool is clean — the workload is read-only — so the
  // evictions themselves cost no simulated I/O).
  DYNOPT_RETURN_IF_ERROR(s.db->pool()->EvictAll());
  SessionWorkloadOptions opts;
  opts.sessions = sessions;
  opts.queries_per_session = kQueriesPerSession;
  opts.seed = 1234;
  opts.concurrent = concurrent;
  return RunSessionWorkload(s.db.get(), s.table, opts);
}

Status Run(Report* report) {
  std::printf("=== concurrent-session scaling on the sharded pool ===\n\n");
  DYNOPT_ASSIGN_OR_RETURN(Setup sharded, Build(/*pool_shards=*/16));
  std::printf("FAMILIES %lld rows, pool 256 frames / %zu shards, "
              "simulated device latency %u us\n\n",
              static_cast<long long>(kRows),
              sharded.db->pool()->shard_count(), kLatencyMicros);

  double qps1 = 0;
  std::vector<double> curve;
  std::printf("%8s %10s %10s %10s %9s\n", "threads", "queries", "wall_s",
              "qps", "speedup");
  SessionWorkloadReport four_thread;
  for (size_t threads : {1, 2, 4, 8}) {
    DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport rep,
                            RunCold(sharded, threads, /*concurrent=*/true));
    for (const SessionOutcome& s : rep.sessions) {
      if (!s.error.empty()) {
        return Status::Internal("session error: " + s.error);
      }
    }
    if (threads == 1) qps1 = rep.queries_per_second;
    if (threads == 4) four_thread = rep;
    double speedup = qps1 > 0 ? rep.queries_per_second / qps1 : 0;
    curve.push_back(rep.queries_per_second);
    std::printf("%8zu %10llu %10.3f %10.1f %8.2fx\n", threads,
                static_cast<unsigned long long>(rep.total_queries),
                rep.wall_seconds, rep.queries_per_second, speedup);
    std::string key = "threads_" + std::to_string(threads);
    report->Add(key + ".qps", rep.queries_per_second);
    report->Add(key + ".wall_seconds", rep.wall_seconds);
    report->Add(key + ".hit_rate", rep.hit_rate);
    report->Add("speedup.t" + std::to_string(threads), speedup);
  }
  std::printf("\nscaling curve (qps): %s\n\n", Sparkline(curve).c_str());

  std::printf("per-shard traffic at 4 threads (hit rate per shard):\n  ");
  uint64_t hits = 0, misses = 0;
  for (size_t s = 0; s < four_thread.shard_deltas.size(); ++s) {
    const BufferPool::ShardStats& d = four_thread.shard_deltas[s];
    hits += d.hits;
    misses += d.misses;
    double rate = (d.hits + d.misses) > 0
                      ? static_cast<double>(d.hits) / (d.hits + d.misses)
                      : 0;
    std::printf("%.2f ", rate);
    report->Add("shard_" + std::to_string(s) + ".hit_rate", rate);
  }
  std::printf("\n  aggregate hit rate %.3f (%llu hits / %llu misses)\n\n",
              four_thread.hit_rate, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));

  // The control: the same 4 sessions against a single-shard pool, whose
  // one lock every pin takes (but no fault's device wait holds).
  DYNOPT_ASSIGN_OR_RETURN(Setup single, Build(/*pool_shards=*/1));
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport control,
                          RunCold(single, 4, /*concurrent=*/true));
  double gain = control.queries_per_second > 0
                    ? four_thread.queries_per_second /
                          control.queries_per_second
                    : 0;
  std::printf("single-shard control at 4 threads: %.1f qps -> sharding "
              "gain %.2fx\n",
              control.queries_per_second, gain);
  report->Add("single_shard.qps_4t", control.queries_per_second);
  report->Add("single_shard.hit_rate", control.hit_rate);
  report->Add("sharding.gain_4t", gain);
  report->AddMeter("meter", sharded.db->meter());
  std::printf(
      "\nThe sessions' simulated faults overlap like queued device I/O: a\n"
      "pin releases its shard's lock across the read, so one shard\n"
      "overlaps them too. The speedup and the gain are reported, not\n"
      "gated.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("concurrency");
  return report.Finish(dynopt::Run(&report));
}
