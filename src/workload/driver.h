// Concurrent-session workload driver.
//
// M worker threads each run an independent stream of DynamicRetrieval
// executions against one shared Database — the first step toward the
// roadmap's many-user serving story, and the setting where the paper's
// §3(c) cache interference stops being simulated: every session's
// retrieval cost now depends on what the *other* sessions did to the
// shared buffer pool.
//
// Each session's query stream is a pure function of (seed, session index),
// so the same streams can be replayed serially (concurrent = false) and the
// per-session result-set hashes compared: tactics and delivery order may
// differ under interference, but result sets must not.
//
// The driver is read-only by design: sessions issue point and range
// retrievals, never DML. Concurrent modification of heap files or B-trees
// is not supported by the storage layer (single-writer; see README
// "Concurrency model").

#ifndef DYNOPT_WORKLOAD_DRIVER_H_
#define DYNOPT_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "governance/admission.h"
#include "governance/query_context.h"
#include "integrity/scrub.h"
#include "obs/telemetry.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace dynopt {

struct SessionWorkloadOptions {
  /// Concurrent sessions; one thread per session when `concurrent`.
  size_t sessions = 4;
  size_t queries_per_session = 100;
  /// Per-session streams derive from this; session i's stream is identical
  /// across runs and across concurrent/serial modes.
  uint64_t seed = 1234;
  /// Fraction of point (id =) queries; the rest are age-range + income-cap
  /// scans — the §4 FAMILIES shapes.
  double point_fraction = 0.5;
  /// Parametric-stream mode: every query is the *same* range class (same
  /// predicate shape, so one QueryClassPrefix) with host variables swept
  /// across four log2 width buckets — the repeated parametric workload
  /// that exercises learned-selectivity convergence. Ignores
  /// point_fraction.
  bool parametric = false;
  /// false: run the same session streams one after another on the calling
  /// thread (the determinism baseline and the 1-thread throughput anchor).
  bool concurrent = true;
  /// Governed mode: every query runs under its own QueryContext built from
  /// `governance` (deadline, budgets, degraded fallback). A governance trip
  /// (cancel/deadline/budget) or a typed I/O failure is counted against the
  /// query and the *session keeps going*; any other error still ends the
  /// session. Ungoverned (false) preserves the original fail-fast runs.
  bool governed = false;
  QueryGovernanceOptions governance;
  /// Admission-governed mode: every query passes through this controller
  /// before executing — admitted queries run under the ticket's context
  /// (overriding `governed`/`governance`), shed queries are counted and
  /// never executed. The driver does not own the controller; the caller
  /// wires its RetryBudget to the pool and reads its trace afterwards.
  AdmissionController* governor = nullptr;
  /// Open-loop arrival mode: session i's query k is *scheduled* at
  /// go + k * arrival_interval_micros, independent of how long earlier
  /// queries took — the load does not politely slow down when the engine
  /// does, which is what makes sustained overload reproducible. A session
  /// that falls behind schedule issues its next query immediately with the
  /// original (past) arrival stamp, so queue wait and lateness are charged
  /// against the query exactly as a real open-loop client would see them.
  bool open_loop = false;
  uint64_t arrival_interval_micros = 1000;
  /// Goodput accounting: a query counts as goodput when it completes
  /// successfully within this allowance measured from its *scheduled*
  /// arrival (not from Open). 0 disables the distinction (every success
  /// is goodput). Applies to governed and ungoverned runs alike, so an
  /// ungoverned overload control is measured by the same yardstick.
  uint64_t goodput_deadline_micros = 0;
  /// Per-query result hashes in stream order (see SessionOutcome).
  bool record_query_hashes = false;
  /// Run a background scrubber thread alongside the sessions: repeated
  /// RunScrubPass sweeps (each resuming where the last stopped) until the
  /// last session finishes. The scrubber is a reader like any session, so
  /// the driver's read-only contract holds.
  bool scrub = false;
  ScrubOptions scrub_options;
  /// Run a telemetry ticker thread: every `telemetry_interval_micros` it
  /// snapshots shared counters (throughput, latency percentiles off the
  /// shared bucket grid, pool hit rate, governance/integrity deltas) into
  /// the report's time series. Reads only atomics and metric counters, so
  /// it is safe beside concurrent sessions and the scrubber.
  bool telemetry = false;
  uint64_t telemetry_interval_micros = 50000;
  /// Engine options for every session's retrieval engines; the profiling
  /// overhead bench flips `retrieval.profile` on and off here.
  RetrievalOptions retrieval;
};

struct SessionOutcome {
  uint64_t queries = 0;
  uint64_t rows = 0;
  /// Order-insensitive fold of each query's result RIDs, chained in query
  /// order: equal hashes <=> identical result sets, query by query.
  /// Only successful queries fold in, so the hash is comparable across
  /// runs exactly when `failed_queries == 0`.
  uint64_t result_hash = 0;
  /// First fatal failure, empty when the session completed cleanly.
  /// Governed mode: governance trips and I/O failures are not fatal.
  std::string error;
  /// Queries stopped by their QueryContext (cancel/deadline/budget).
  uint64_t governance_trips = 0;
  /// Queries failed by a typed I/O error (EIO/corruption, no fallback).
  uint64_t io_failures = 0;
  uint64_t failed_queries = 0;  // trips + io failures
  /// Queries that completed exactly but on a fallback strategy after an
  /// I/O fault disqualified an index.
  uint64_t degraded_queries = 0;
  /// Queries the admission governor refused (typed Overloaded) — they
  /// never executed, and are not failed_queries.
  uint64_t shed_queries = 0;
  /// Successful queries inside the goodput allowance (== queries when
  /// options.goodput_deadline_micros is 0).
  uint64_t goodput_queries = 0;
  /// Stream-order per-query result hashes (options.record_query_hashes):
  /// a completed query contributes a deterministic fold of its result
  /// set, a shed query kShedQueryHash, any other failure kFailedQueryHash.
  /// Two runs of the same stream must agree at every index where *both*
  /// hold a real hash — the golden-result check under load.
  std::vector<uint64_t> query_hashes;
};

/// Sentinels in SessionOutcome::query_hashes.
inline constexpr uint64_t kShedQueryHash = ~0ull;
inline constexpr uint64_t kFailedQueryHash = ~0ull - 1;

struct SessionWorkloadReport {
  double wall_seconds = 0;
  uint64_t total_queries = 0;
  uint64_t total_rows = 0;
  double queries_per_second = 0;
  std::vector<SessionOutcome> sessions;
  /// Per-shard deltas over the run (hits/misses/evictions/writebacks).
  std::vector<BufferPool::ShardStats> shard_deltas;
  /// Aggregate hit rate over the run: hits / (hits + misses).
  double hit_rate = 0;
  /// Governed-mode aggregates (zero in ungoverned runs).
  uint64_t governance_trips = 0;
  uint64_t io_failures = 0;
  uint64_t degraded_queries = 0;
  /// Admission-governor aggregates (zero without options.governor).
  uint64_t shed_queries = 0;
  /// Successful queries within the goodput allowance, and their rate.
  uint64_t goodput_queries = 0;
  double goodput_qps = 0;
  /// Latency percentiles over all sessions' reservoirs (successful
  /// queries, micros from scheduled arrival); always computed.
  double p50_latency_micros = 0;
  double p99_latency_micros = 0;
  /// Background-scrubber aggregates (zero unless options.scrub).
  uint64_t scrub_passes = 0;
  /// Scrub passes skipped because the governor held the ladder at
  /// kDeferScrub or above.
  uint64_t scrub_deferred = 0;
  uint64_t scrub_pages = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_quarantined = 0;
  /// Ticker time series (empty unless options.telemetry); the last
  /// snapshot is a final capture taken after the sessions join, so the
  /// series always covers the whole run.
  std::vector<TelemetrySnapshot> telemetry;
};

/// Runs the session streams against `table` (FAMILIES shape: columns
/// id, age, income, ... with indexes as created by the caller). Returns
/// the aggregate report; per-session errors are reported in the outcomes
/// rather than failing the whole run.
Result<SessionWorkloadReport> RunSessionWorkload(
    Database* db, Table* table, const SessionWorkloadOptions& options);

}  // namespace dynopt

#endif  // DYNOPT_WORKLOAD_DRIVER_H_
