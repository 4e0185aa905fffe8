// Integrity costs: background-scrub overhead and online repair latency.
//
// Part 1 — scrub overhead. A file-backed FAMILIES database serves the
// standard concurrent session workload in interleaved pairs: once alone
// (baseline qps), once with the background scrubber sweeping the store
// under a throttled budget the whole time. The overhead is the median
// per-pair throughput loss, budgeted at <= 10% (not gated).
//
// Part 2 — online repair latency. The same database is committed (every
// page image WAL-covered), flushed, and evicted cold; a spread of frames
// is then corrupted on disk. Each first pin of a corrupt frame fails its
// checksum, rebuilds the frame from the WAL's latest committed image, and
// retries — transparently. The latency distribution of those repairing
// pins, against cold clean pins as the floor, prices the self-healing
// read path.
//
// Reported to BENCH_scrub.json:
//   baseline.qps / scrubbed.qps    median workload throughput per mode
//   scrub.overhead_pct             median of 100 * (1 - scrubbed/baseline)
//                                  per pair, budget <= 10
//   scrub.passes, scrub.pages      median scrubber work per scrubbed run
//   repair.pages                   corrupted frames repaired online
//   repair.mean_us, repair.p99_us  repairing-pin latency
//   cold_pin.mean_us               clean cold-pin latency (the floor)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "catalog/table.h"
#include "durability/file_page_store.h"
#include "integrity/check.h"
#include "harness.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 20000;
constexpr size_t kSessions = 4;
constexpr size_t kQueries = 150;

// Interleaved baseline/scrubbed pairs the overhead figure is the median
// of.
constexpr int kPairs = 5;

Status CorruptOnDisk(const std::string& path, PageId page) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  uint64_t off = FilePageStore::FrameOffsetOf(page) +
                 FilePageStore::kFrameHeaderBytes + 512;
  char c = 0;
  f.seekg(static_cast<std::streamoff>(off)).get(c);
  f.seekp(static_cast<std::streamoff>(off)).put(static_cast<char>(c ^ 0x5a));
  f.close();
  if (!f) return Status::IOError("cannot corrupt a frame of " + path);
  return Status::OK();
}

Status Run(Report* report) {
  std::printf("=== integrity: scrub overhead and online repair ===\n\n");

  const std::string path = "bench_scrub.db";
  ::remove(path.c_str());
  ::remove((path + ".wal").c_str());
  DatabaseOptions options;
  options.path = path;
  options.pool_pages = 4096;  // the build must fit (no-steal pool)
  DYNOPT_ASSIGN_OR_RETURN(auto db, Database::Create(options));
  DYNOPT_ASSIGN_OR_RETURN(Table * table,
                          BuildFamilies(db.get(), kRows, /*seed=*/42));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  DYNOPT_RETURN_IF_ERROR(db->Commit());
  std::printf("database: %lld rows, %zu pages, 2 indexes\n\n",
              static_cast<long long>(kRows), db->page_count());

  // ---- Part 1: workload throughput with and without the scrubber.
  SessionWorkloadOptions wo;
  wo.sessions = kSessions;
  wo.queries_per_session = kQueries;
  wo.seed = 7;
  wo.concurrent = true;
  SessionWorkloadOptions scrubbed = wo;
  scrubbed.scrub = true;
  // The throttle sets the scrubber's duty cycle; ~8 pin bursts between
  // 2 ms sleeps keeps it a few percent of one core.
  scrubbed.scrub_options.throttle_every = 8;
  scrubbed.scrub_options.throttle_micros = 2000;

  // Interleaved pairs, read as medians: the runs are short, so scheduler
  // noise is larger than the effect being measured on a loaded box.
  DYNOPT_RETURN_IF_ERROR(
      RunSessionWorkload(db.get(), table, wo).status());  // warm the pool
  std::vector<double> passes, pages;
  auto qps = [&](const SessionWorkloadOptions& mode) -> Result<double> {
    DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport r,
                            RunSessionWorkload(db.get(), table, mode));
    if (mode.scrub) {
      passes.push_back(static_cast<double>(r.scrub_passes));
      pages.push_back(static_cast<double>(r.scrub_pages));
    }
    return r.queries_per_second;
  };
  DYNOPT_ASSIGN_OR_RETURN(
      Interleaved runs,
      RunInterleaved(
          kPairs, [&] { return qps(wo); }, [&] { return qps(scrubbed); }));
  std::vector<double> overhead;
  for (int i = 0; i < kPairs; ++i) {
    overhead.push_back(100.0 * (1.0 - runs.b[i] / runs.a[i]));
  }
  std::printf("%12s %12s %10s %10s   (median of %d interleaved pairs)\n",
              "mode", "qps", "passes", "pages", kPairs);
  std::printf("%12s %12.0f %10s %10s\n", "baseline", Quantile(runs.a, 0.5),
              "-", "-");
  std::printf("%12s %12.0f %10.0f %10.0f\n", "scrubbed",
              Quantile(runs.b, 0.5), Quantile(passes, 0.5),
              Quantile(pages, 0.5));
  report->Add("baseline.qps", Quantile(runs.a, 0.5));
  report->Add("scrubbed.qps", Quantile(runs.b, 0.5));
  report->Add("scrub.passes", Quantile(passes, 0.5));
  report->Add("scrub.pages", Quantile(pages, 0.5));
  report->PrintMedian("scrub.overhead_pct", overhead,
                      "\nscrub overhead: median %.1f%% per pair, quartiles "
                      "%.1f%% / %.1f%% (budget <= 10%%)\n");

  // ---- Part 2: online repair latency, cold clean pins as the floor.
  DYNOPT_RETURN_IF_ERROR(db->pool()->FlushAll().status());
  DYNOPT_RETURN_IF_ERROR(db->pool()->EvictAll());
  const std::vector<PageId>& heap_pages = table->heap()->pages();
  std::vector<PageId> victims, clean;
  for (size_t i = 0; i < heap_pages.size() && victims.size() < 32; i += 2) {
    victims.push_back(heap_pages[i]);
  }
  for (size_t i = 1; i < heap_pages.size() && clean.size() < 32; i += 2) {
    clean.push_back(heap_pages[i]);
  }
  for (PageId v : victims) DYNOPT_RETURN_IF_ERROR(CorruptOnDisk(path, v));

  // A pin's latency, read while the page is still pinned.
  auto pin_micros = [&](PageId id, std::vector<double>* out) -> Status {
    Stopwatch watch;
    auto guard = db->pool()->Pin(id);
    out->push_back(watch.Seconds() * 1e6);
    return guard.status();
  };
  std::vector<double> clean_us, repair_us;
  for (PageId id : clean) DYNOPT_RETURN_IF_ERROR(pin_micros(id, &clean_us));
  for (PageId id : victims) DYNOPT_RETURN_IF_ERROR(pin_micros(id, &repair_us));
  if (db->repairer()->repairs() < victims.size()) {
    return Status::Internal(
        "expected " + std::to_string(victims.size()) + " repairs, saw " +
        std::to_string(db->repairer()->repairs()));
  }

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
  };
  double p99 = Quantile(repair_us, 0.99);
  std::printf("online repair: %zu corrupt frames rebuilt from the WAL\n",
              victims.size());
  std::printf("%18s %10.1f us\n", "cold clean pin", mean(clean_us));
  std::printf("%18s %10.1f us (p99 %.1f us)\n", "repairing pin",
              mean(repair_us), p99);
  report->Add("cold_pin.mean_us", mean(clean_us));
  report->Add("repair.pages", static_cast<double>(victims.size()));
  report->Add("repair.mean_us", mean(repair_us));
  report->Add("repair.p99_us", p99);

  // Sanity: the store is structurally clean again after the repairs.
  IntegrityReport integrity = CheckDatabase(db.get());
  std::printf("\npost-repair CheckDatabase: %s\n",
              integrity.Summary().c_str());
  report->Add("post_repair.clean", integrity.clean() ? 1 : 0);

  std::printf(
      "\nThe scrubber prices latent-fault detection as a throttled\n"
      "background reader; repair cost is one WAL scan plus a frame\n"
      "rewrite, paid only by the unlucky pin that trips the checksum.\n");

  db.reset();
  ::remove(path.c_str());
  ::remove((path + ".wal").c_str());
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("scrub");
  return report.Finish(dynopt::Run(&report));
}
