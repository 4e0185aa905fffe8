// Sustained overload: metastability without admission control, goodput
// retention with it.
//
// The classic failure this bench reproduces: an open-loop workload offers
// 2x the engine's measured capacity, and the ungoverned engine admits
// everything — every query executes, every query completes later than the
// one before, and goodput (success within the deadline, measured from the
// *scheduled* arrival) collapses toward zero even though the engine never
// stops running flat out. The same offered load through the
// AdmissionController sheds the hopeless fraction typed-and-instantly and
// keeps the admitted remainder inside its deadline.
//
// Phases:
//   capacity   closed-loop concurrent run: measured qps + latency, which
//              sizes the deadline and the overload arrival rate; as long
//              as the overload run, so its p99 has 16 samples beyond it
//   plateau    open-loop at 0.9x capacity through the governor: the
//              pre-overload goodput baseline
//   overload   the same streams at 2.0x capacity, governed vs ungoverned
//   recovery   light load on the same governor: the ladder steps back up
//   golden     an unloaded serial replay: every query the governed
//              overloaded run completed must hash identically
//
// The whole scenario, database and governor included, runs kRepetitions
// times. Gates (non-zero exit on failure):
//   in every repetition:
//     the plateau produces goodput
//     every shed is typed Overloaded (any other error fails the session)
//     the brownout ladder steps down AND back up in the trace
//     golden result hashes match wherever both runs completed a query
//   over the median across repetitions:
//     governed goodput retention >= 70% of the plateau
//     ungoverned goodput retention < 40% (the motivation must reproduce)
//     governed admitted p99 <= 2x deadline (the tail stays bounded)
//     the 2x overload sheds queries
//
// Reported to BENCH_overload.json: each figure is its median across the
// repetitions.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "governance/admission.h"
#include "harness.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 8000;
constexpr size_t kSessions = 4;
constexpr size_t kPlateauQueries = 80;
constexpr size_t kOverloadQueries = 400;
constexpr uint32_t kDeviceLatencyMicros = 5;
// Independent runs of the whole scenario the median gates read.
constexpr int kRepetitions = 5;

struct Setup {
  MemPageStore* inner = nullptr;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

Result<Setup> Build() {
  Setup s;
  auto inner = std::make_unique<MemPageStore>();
  s.inner = inner.get();
  DatabaseOptions o;
  o.pool_pages = 256;  // small pool: load actually reaches the device
  s.db = std::make_unique<Database>(std::move(o), std::move(inner));
  DYNOPT_ASSIGN_OR_RETURN(s.table, BuildFamilies(s.db.get(), kRows, 42));
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_id", {"id"}).status());
  DYNOPT_RETURN_IF_ERROR(s.table->CreateIndex("by_age", {"age"}).status());
  s.inner->set_simulated_latency(kDeviceLatencyMicros, kDeviceLatencyMicros);
  return s;
}

SessionWorkloadOptions BaseOptions(size_t queries) {
  SessionWorkloadOptions o;
  o.sessions = kSessions;
  o.queries_per_session = queries;
  o.seed = 4242;
  o.concurrent = true;
  return o;
}

/// Fails with the first session's error: an untyped failure.
Status SessionsClean(const SessionWorkloadReport& r, const char* label) {
  for (const SessionOutcome& s : r.sessions) {
    if (!s.error.empty()) {
      return Status::Internal(std::string(label) +
                              ": session error (untyped failure): " + s.error);
    }
  }
  return Status::OK();
}

/// Each figure's value in every repetition so far, by figure name.
using Figures = std::map<std::string, std::vector<double>>;

/// Runs the whole scenario once on a fresh database and governor, gates
/// what every repetition must pass, and appends its figures to `f`.
Status RunRepetition(int rep, Report* report, Figures* f) {
  DYNOPT_ASSIGN_OR_RETURN(Setup s, Build());

  // ---- capacity: closed-loop, no governor. Sizes everything downstream,
  // so it runs as many queries as the overload phase: a shorter run's p99
  // (4 x 80 queries) swung with one scheduler hiccup, and so did whether
  // the ungoverned run collapsed.
  DYNOPT_ASSIGN_OR_RETURN(
      SessionWorkloadReport cap,
      RunSessionWorkload(s.db.get(), s.table, BaseOptions(kOverloadQueries)));
  DYNOPT_RETURN_IF_ERROR(SessionsClean(cap, "capacity"));
  // Deadline: generous against the measured tail (so the plateau is nearly
  // all goodput) but capped well below the overload phase's scheduled span —
  // sustained 2x load must accumulate lateness past it, or the metastable
  // failure cannot show inside the bench's window.
  uint64_t deadline_micros = std::clamp<uint64_t>(
      static_cast<uint64_t>(cap.p99_latency_micros * 4), 5000, 20000);
  auto interval_for = [&](double load_factor) {
    double per_session_qps = cap.queries_per_second * load_factor / kSessions;
    return std::max<uint64_t>(
        static_cast<uint64_t>(1e6 / std::max(per_session_qps, 1.0)), 1);
  };

  AdmissionOptions ao;
  ao.concurrency_slots = static_cast<uint32_t>(kSessions);
  ao.queue_capacity = 8;
  ao.target_p99_micros = deadline_micros / 2;
  ao.min_dwell_updates = 16;
  ao.latency_window = 32;
  ao.base.deadline_micros = deadline_micros;
  AdmissionController governor(ao, s.db->metrics());

  // ---- plateau: 0.9x capacity through the governor.
  SessionWorkloadOptions plateau_opts = BaseOptions(kPlateauQueries);
  plateau_opts.open_loop = true;
  plateau_opts.arrival_interval_micros = interval_for(0.9);
  plateau_opts.governor = &governor;
  plateau_opts.goodput_deadline_micros = deadline_micros;
  DYNOPT_ASSIGN_OR_RETURN(
      SessionWorkloadReport plateau,
      RunSessionWorkload(s.db.get(), s.table, plateau_opts));
  DYNOPT_RETURN_IF_ERROR(SessionsClean(plateau, "plateau"));
  report->Gate(plateau.goodput_qps > 0,
               "repetition %d: plateau produced no goodput", rep);
  double plateau_goodput = std::max(plateau.goodput_qps, 1e-9);

  // ---- overload: the same streams at 2x capacity, governed.
  SessionWorkloadOptions over_opts = BaseOptions(kOverloadQueries);
  over_opts.open_loop = true;
  over_opts.arrival_interval_micros = interval_for(2.0);
  over_opts.governor = &governor;
  over_opts.goodput_deadline_micros = deadline_micros;
  over_opts.record_query_hashes = true;
  over_opts.scrub = true;  // the scrubber must yield, not compete
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport governed,
                          RunSessionWorkload(s.db.get(), s.table, over_opts));
  Status typed = SessionsClean(governed, "governed");
  report->Gate(typed.ok(), "repetition %d: a shed or failure was not typed: %s",
               rep, typed.ToString().c_str());

  // ---- overload, ungoverned control: same arrivals, no governor.
  SessionWorkloadOptions raw_opts = over_opts;
  raw_opts.governor = nullptr;
  raw_opts.record_query_hashes = false;
  raw_opts.scrub = false;
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport raw,
                          RunSessionWorkload(s.db.get(), s.table, raw_opts));
  DYNOPT_RETURN_IF_ERROR(SessionsClean(raw, "ungoverned"));

  // ---- recovery: light load on the same governor steps the ladder up.
  SessionWorkloadOptions light_opts = BaseOptions(40);
  light_opts.open_loop = true;
  light_opts.arrival_interval_micros = interval_for(0.5);
  light_opts.governor = &governor;
  light_opts.goodput_deadline_micros = deadline_micros;
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport light,
                          RunSessionWorkload(s.db.get(), s.table, light_opts));
  DYNOPT_RETURN_IF_ERROR(SessionsClean(light, "recovery"));
  bool stepped_down =
      governor.trace().Contains(TraceEventKind::kBrownoutStep, "down");
  bool stepped_up =
      governor.trace().Contains(TraceEventKind::kBrownoutStep, "up");
  report->Gate(stepped_down && stepped_up,
               "repetition %d: brownout ladder did not step %s", rep,
               !stepped_down ? "down" : "back up");

  // ---- golden: unloaded serial replay of the overloaded streams.
  SessionWorkloadOptions gold_opts = BaseOptions(kOverloadQueries);
  gold_opts.concurrent = false;
  gold_opts.record_query_hashes = true;
  DYNOPT_ASSIGN_OR_RETURN(SessionWorkloadReport gold,
                          RunSessionWorkload(s.db.get(), s.table, gold_opts));
  DYNOPT_RETURN_IF_ERROR(SessionsClean(gold, "golden"));
  uint64_t compared = 0, mismatched = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    const auto& got = governed.sessions[i].query_hashes;
    const auto& want = gold.sessions[i].query_hashes;
    for (size_t q = 0; q < std::min(got.size(), want.size()); ++q) {
      if (got[q] == kShedQueryHash || got[q] == kFailedQueryHash) continue;
      if (want[q] == kShedQueryHash || want[q] == kFailedQueryHash) continue;
      compared++;
      if (got[q] != want[q]) mismatched++;
    }
  }
  report->Gate(compared > 0 && mismatched == 0,
               "repetition %d: golden hashes (%llu compared, %llu mismatched)",
               rep, static_cast<unsigned long long>(compared),
               static_cast<unsigned long long>(mismatched));

  double governed_retention = governed.goodput_qps / plateau_goodput;
  double raw_retention = raw.goodput_qps / plateau_goodput;
  std::printf("%3d %9.0f %8llu %9.0f | %7.0f%% %8.0f %6llu | %7.0f%% %8.0f | "
              "%8llu %6llu\n",
              rep, cap.queries_per_second,
              static_cast<unsigned long long>(deadline_micros),
              plateau.goodput_qps, governed_retention * 100,
              governed.p99_latency_micros,
              static_cast<unsigned long long>(governed.shed_queries),
              raw_retention * 100, raw.p99_latency_micros,
              static_cast<unsigned long long>(compared),
              static_cast<unsigned long long>(mismatched));
  auto add = [&](const char* key, double value) { (*f)[key].push_back(value); };
  MetricsRegistry* m = s.db->metrics();
  add("capacity.qps", cap.queries_per_second);
  add("capacity.p99_micros", cap.p99_latency_micros);
  add("capacity.deadline_micros", static_cast<double>(deadline_micros));
  add("plateau.goodput_qps", plateau.goodput_qps);
  add("overload_governed.goodput_qps", governed.goodput_qps);
  add("overload_governed.retention", governed_retention);
  add("overload_governed.shed", static_cast<double>(governed.shed_queries));
  add("overload_governed.p99_micros", governed.p99_latency_micros);
  add("overload_governed.p99_over_deadline",
      governed.p99_latency_micros / static_cast<double>(deadline_micros));
  add("overload_governed.scrub_deferred",
      static_cast<double>(governed.scrub_deferred));
  add("overload_ungoverned.goodput_qps", raw.goodput_qps);
  add("overload_ungoverned.retention", raw_retention);
  add("overload_ungoverned.p99_micros", raw.p99_latency_micros);
  add("recovery.steps_down", m->Value("admission.brownout_steps_down"));
  add("recovery.steps_up", m->Value("admission.brownout_steps_up"));
  add("recovery.final_level", static_cast<uint8_t>(governor.level()));
  add("golden.compared", static_cast<double>(compared));
  add("golden.mismatched", static_cast<double>(mismatched));
  return Status::OK();
}

Status Run(Report* report) {
  std::printf("=== admission control under 2x sustained overload ===\n\n");
  std::printf("FAMILIES %lld rows, %zu sessions, simulated device %uus, "
              "%d repetitions\n\n",
              static_cast<long long>(kRows), kSessions, kDeviceLatencyMicros,
              kRepetitions);
  std::printf("%3s %9s %8s %9s | %8s %8s %6s | %8s %8s | %8s %6s\n", "rep",
              "cap_qps", "dl_us", "plateau", "gov_ret", "gov_p99", "shed",
              "raw_ret", "raw_p99", "compared", "mism");
  Figures f;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    DYNOPT_RETURN_IF_ERROR(RunRepetition(rep, report, &f));
  }
  for (const auto& [key, values] : f) report->Add(key, Quantile(values, 0.5));

  double governed = Quantile(f["overload_governed.retention"], 0.5);
  double raw = Quantile(f["overload_ungoverned.retention"], 0.5);
  double p99_ratio = Quantile(f["overload_governed.p99_over_deadline"], 0.5);
  double shed = Quantile(f["overload_governed.shed"], 0.5);
  std::printf("\nmedian of %d: governed retention %.0f%%, ungoverned "
              "retention %.0f%%, governed p99 %.2fx deadline, %.0f shed\n",
              kRepetitions, governed * 100, raw * 100, p99_ratio, shed);
  report->Gate(governed >= 0.70, "median governed retention %.0f%% < 70%%",
               governed * 100);
  report->Gate(raw < 0.40,
               "median ungoverned retention %.0f%% >= 40%% (overload did not "
               "reproduce)",
               raw * 100);
  report->Gate(p99_ratio <= 2.0, "median governed p99 %.2fx > 2x deadline",
               p99_ratio);
  report->Gate(shed > 0, "2x overload shed nothing in the median repetition");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("overload");
  return report.Finish(dynopt::Run(&report));
}
