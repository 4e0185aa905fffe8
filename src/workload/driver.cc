#include "workload/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/retrieval.h"
#include "obs/metrics.h"
#include "util/atomic_counter.h"
#include "util/rng.h"

namespace dynopt {

namespace {

/// Counters shared between the sessions and the telemetry ticker — all
/// relaxed atomics, bumped on the session threads' hot path and sampled
/// (never reset) by the ticker, which works in deltas.
struct LiveCounters {
  RelaxedCounter queries;
  RelaxedCounter rows;
  std::atomic<uint64_t> active{0};
  /// Successful-query wall latencies (micros, from scheduled arrival) over
  /// the shared grid (same bucket assignment as Histogram::Observe: first
  /// bound >= value). The workload's one latency record: the report's
  /// percentiles and the ticker's read it.
  std::vector<RelaxedCounter> latency_buckets;

  LiveCounters() : latency_buckets(LatencyBucketBounds().size() + 1) {}

  void ObserveLatency(double micros) {
    const std::vector<double>& bounds = LatencyBucketBounds();
    size_t i = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), micros) -
        bounds.begin());
    latency_buckets[i]++;
  }
};

// Log2 range-width buckets the parametric stream sweeps.
constexpr size_t kParametricBuckets = 4;

/// One session: its own prepared statements, rng, and outcome. The stream
/// is generated inside Run(), so it depends only on (seed, index).
class Session {
 public:
  Session(Database* db, Table* table, const SessionWorkloadOptions& opts,
          size_t index, LiveCounters* live)
      : db_(db),
        opts_(opts),
        live_(live),
        rng_(opts.seed * 1000003 + index * 7919 + 1) {
    RetrievalSpec range_spec;
    range_spec.table = table;
    range_spec.restriction = Predicate::And(
        {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
         Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
    range_spec.projection = {0, 1, 2};
    range_engine_ =
        std::make_unique<DynamicRetrieval>(db, range_spec, opts.retrieval);

    RetrievalSpec point_spec;
    point_spec.table = table;
    point_spec.restriction =
        Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id"));
    point_spec.projection = {0};
    point_engine_ =
        std::make_unique<DynamicRetrieval>(db, point_spec, opts.retrieval);

    row_count_ = static_cast<int64_t>(table->record_count());
  }

  SessionOutcome Run(std::chrono::steady_clock::time_point go) {
    SessionOutcome out;
    live_->active.fetch_add(1, std::memory_order_relaxed);
    RowBatch batch;
    for (size_t q = 0; q < opts_.queries_per_session; ++q) {
      DynamicRetrieval* engine;
      ParamMap params;
      if (opts_.parametric) {
        // Same query class every time; only the host variables move. The
        // range width sweeps the log2 buckets so every bucket of the class
        // keeps receiving fresh observations.
        int64_t lo = rng_.NextInt(0, 99);
        int64_t hi = lo + (int64_t{1} << (q % kParametricBuckets));
        params = {{"lo", Value(lo)}, {"hi", Value(hi)},
                  {"cap", Value(int64_t{240000})}};
        engine = range_engine_.get();
      } else if (rng_.NextDouble() < opts_.point_fraction) {
        // Point query; a miss (id past the table) ~1/8 of the time.
        int64_t id = rng_.NextBounded(8) == 0
                         ? row_count_ + rng_.NextInt(1, 1000)
                         : rng_.NextInt(0, row_count_ > 0 ? row_count_ - 1 : 0);
        params = {{"id", Value(id)}};
        engine = point_engine_.get();
      } else {
        int64_t lo = rng_.NextInt(0, 99);
        int64_t hi = lo + rng_.NextInt(0, 10);
        int64_t cap = rng_.NextInt(0, 240000);
        params = {{"lo", Value(lo)}, {"hi", Value(hi)}, {"cap", Value(cap)}};
        engine = range_engine_.get();
      }
      // Scheduled arrival. Open-loop: query k of this session arrives at
      // go + k*interval no matter how the engine is doing; a session that
      // is behind schedule issues immediately with the original (past)
      // stamp, so lateness counts against the query like queue wait.
      auto arrival = std::chrono::steady_clock::now();
      if (opts_.open_loop) {
        arrival = go + std::chrono::microseconds(
                           q * opts_.arrival_interval_micros);
        std::this_thread::sleep_until(arrival);  // no-op when behind
      }
      // The governing context: a governor ticket when one is attached, a
      // fresh per-query context in plain governed mode (deadlines and
      // budgets reset at each statement boundary), else none.
      std::unique_ptr<QueryContext> ctx;
      AdmissionController::Ticket ticket;
      QueryContext* qctx = nullptr;
      if (opts_.governor != nullptr) {
        auto admitted = opts_.governor->AdmitAt(arrival);
        if (!admitted.ok()) {
          if (!admitted.status().IsOverloaded()) {
            // The governor sheds with Overloaded and nothing else; any
            // other status is a bug worth failing the session over.
            out.error = admitted.status().ToString();
            break;
          }
          out.shed_queries++;
          if (opts_.record_query_hashes) {
            out.query_hashes.push_back(kShedQueryHash);
          }
          continue;
        }
        ticket = std::move(*admitted);
        qctx = ticket.context();
      } else if (opts_.governed) {
        ctx = std::make_unique<QueryContext>(opts_.governance,
                                             db_->metrics());
        qctx = ctx.get();
      }
      Status st = engine->Open(params, qctx);
      uint64_t fold = 0;
      uint64_t rows = 0;
      if (st.ok()) {
        for (;;) {
          auto more = engine->NextBatch(&batch);
          if (!more.ok()) {
            st = more.status();
            break;
          }
          if (!*more) break;
          // XOR: order-insensitive within the query.
          for (uint32_t r = 0; r < batch.num_rows(); ++r) {
            fold ^= Mix64(batch.rid(r).ToU64());
          }
          rows += batch.num_rows();
        }
      }
      // Wall latency from scheduled arrival — the figure an open-loop
      // client experiences, and the one the governor's signal feeds on.
      auto q_end = std::chrono::steady_clock::now();
      double micros =
          std::chrono::duration<double, std::micro>(q_end - arrival).count();
      if (ticket.valid()) {
        // Successful and tripped queries both occupied a slot; both feed
        // the overload signal.
        opts_.governor->Finish(std::move(ticket), micros);
      }
      if (!st.ok()) {
        // Under governance, a tripped or I/O-failed query is an expected,
        // isolated outcome: count it and keep the session alive. Anything
        // else (logic errors, corruption of internal state) stays fatal.
        bool tolerant = opts_.governed || opts_.governor != nullptr;
        if (tolerant && st.IsGovernance()) {
          out.governance_trips++;
          out.failed_queries++;
          if (opts_.record_query_hashes) {
            out.query_hashes.push_back(kFailedQueryHash);
          }
          continue;
        }
        if (tolerant && IsIoFault(st)) {
          out.io_failures++;
          out.failed_queries++;
          if (opts_.record_query_hashes) {
            out.query_hashes.push_back(kFailedQueryHash);
          }
          continue;
        }
        out.error = st.ToString();
        break;
      }
      if (engine->degraded()) out.degraded_queries++;
      live_->ObserveLatency(micros);
      out.queries++;
      out.rows += rows;
      if (opts_.goodput_deadline_micros == 0 ||
          micros <= static_cast<double>(opts_.goodput_deadline_micros)) {
        out.goodput_queries++;
      }
      live_->queries++;
      live_->rows.Add(rows);
      // Chain in query order so stream position matters.
      out.result_hash = Mix64(out.result_hash ^ fold ^ (rows + 1));
      if (opts_.record_query_hashes) {
        out.query_hashes.push_back(Mix64(fold ^ (rows + 1)));
      }
    }
    live_->active.fetch_sub(1, std::memory_order_relaxed);
    return out;
  }

 private:
  Database* db_;
  const SessionWorkloadOptions& opts_;
  LiveCounters* live_;  // shared by every session and the ticker
  Rng rng_;
  std::unique_ptr<DynamicRetrieval> range_engine_;
  std::unique_ptr<DynamicRetrieval> point_engine_;
  int64_t row_count_ = 0;
};

}  // namespace

Result<SessionWorkloadReport> RunSessionWorkload(
    Database* db, Table* table, const SessionWorkloadOptions& options) {
  if (options.sessions == 0) {
    return Status::InvalidArgument("need at least one session");
  }
  BufferPool* pool = db->pool();
  std::vector<BufferPool::ShardStats> before(pool->shard_count());
  for (size_t i = 0; i < pool->shard_count(); ++i) {
    before[i] = pool->shard_stats(i);
  }

  // Construct sessions up front (engine construction does catalog work
  // that should not count toward throughput).
  LiveCounters live;
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(options.sessions);
  for (size_t i = 0; i < options.sessions; ++i) {
    sessions.push_back(
        std::make_unique<Session>(db, table, options, i, &live));
  }

  SessionWorkloadReport report;
  report.sessions.resize(options.sessions);

  // The scrubber runs for the whole measured window and stops after the
  // last session joins; its fields in `report` are written only by the
  // scrubber thread and read only after the join below.
  std::atomic<bool> scrub_stop{false};
  std::thread scrubber;
  if (options.scrub) {
    scrubber = std::thread([&] {
      ScrubOptions sopts = options.scrub_options;
      while (!scrub_stop.load(std::memory_order_acquire)) {
        if (options.governor != nullptr &&
            options.governor->scrubber_deferred()) {
          // Brownout at kDeferScrub or above: the scrubber yields its I/O
          // to the foreground and checks back in shortly.
          report.scrub_deferred++;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        ScrubReport r = RunScrubPass(db, sopts);
        report.scrub_passes++;
        report.scrub_pages += r.pages_scanned;
        report.scrub_repaired += r.repaired_pages;
        report.scrub_quarantined += r.quarantined_pages;
        sopts.start_page = r.next_page;
        if (r.pages_scanned == 0) std::this_thread::yield();
      }
    });
  }

  // The telemetry ticker samples only lock-protected or atomic state
  // (LiveCounters, shard_stats, metric counters), so it can run beside
  // the sessions and the scrubber. Snapshots are deltas between samples;
  // a final capture after the joins closes the series.
  MetricsRegistry* metrics = db->metrics();
  auto telemetry_t0 = std::chrono::steady_clock::now();
  struct TelemetryPrev {
    uint64_t queries = 0;
    std::vector<uint64_t> buckets;
    uint64_t hits = 0, misses = 0;
    uint64_t fallbacks = 0, trips = 0, io_faults = 0;
    uint64_t scrub_pages = 0, repairs = 0;
    uint64_t admitted = 0, shed = 0;
  } prev;
  prev.buckets.assign(LatencyBucketBounds().size() + 1, 0);
  auto capture = [&] {
    TelemetrySnapshot s;
    auto now = std::chrono::steady_clock::now();
    s.t_seconds = std::chrono::duration<double>(now - telemetry_t0).count();
    s.active_sessions = live.active.load(std::memory_order_relaxed);
    s.queries_total = live.queries.load();
    s.rows_total = live.rows.load();
    double dt = report.telemetry.empty()
                    ? s.t_seconds
                    : s.t_seconds - report.telemetry.back().t_seconds;
    uint64_t dq = s.queries_total - prev.queries;
    prev.queries = s.queries_total;
    s.interval_qps = dt > 0 ? static_cast<double>(dq) / dt : 0;
    std::vector<uint64_t> deltas(prev.buckets.size());
    for (size_t i = 0; i < deltas.size(); ++i) {
      uint64_t cur = live.latency_buckets[i].load();
      deltas[i] = cur - prev.buckets[i];
      prev.buckets[i] = cur;
    }
    s.p50_micros = PercentileFromBuckets(LatencyBucketBounds(), deltas, 0.50);
    s.p99_micros = PercentileFromBuckets(LatencyBucketBounds(), deltas, 0.99);
    uint64_t hits = 0, misses = 0;
    for (size_t i = 0; i < pool->shard_count(); ++i) {
      BufferPool::ShardStats st = pool->shard_stats(i);
      hits += st.hits;
      misses += st.misses;
    }
    uint64_t dh = hits - prev.hits, dm = misses - prev.misses;
    prev.hits = hits;
    prev.misses = misses;
    s.pool_hit_rate = (dh + dm) > 0 ? static_cast<double>(dh) /
                                          static_cast<double>(dh + dm)
                                    : 0;
    if (metrics != nullptr) {
      auto delta = [](uint64_t* seen, uint64_t cur) {
        uint64_t d = cur - *seen;
        *seen = cur;
        return d;
      };
      s.fallbacks = delta(&prev.fallbacks,
                          metrics->Value("governance.strategy_fallbacks"));
      s.governance_trips =
          delta(&prev.trips, metrics->Value("governance.cancellations") +
                                 metrics->Value("governance.deadline_hits") +
                                 metrics->Value("governance.budget_hits"));
      s.io_faults =
          delta(&prev.io_faults, metrics->Value("governance.io_faults"));
      s.scrub_pages =
          delta(&prev.scrub_pages, metrics->Value("integrity.scrub_pages"));
      s.pages_repaired =
          delta(&prev.repairs, metrics->Value("integrity.repairs") +
                                   metrics->Value("integrity.pin_repairs"));
      s.admitted = delta(&prev.admitted, metrics->Value("admission.admitted"));
      s.shed = delta(&prev.shed, metrics->Value("admission.shed"));
      s.queue_depth = metrics->Value("admission.queue_depth");
      s.brownout_level = metrics->Value("admission.brownout_level");
      s.applied_lsn = metrics->Value("replication.applied_lsn");
      s.lag_bytes = metrics->Value("replication.lag_bytes");
    }
    report.telemetry.push_back(s);
  };
  std::atomic<bool> telemetry_stop{false};
  std::thread ticker;
  if (options.telemetry) {
    uint64_t interval =
        std::max<uint64_t>(options.telemetry_interval_micros, 1000);
    ticker = std::thread([&, interval] {
      while (!telemetry_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(interval));
        if (telemetry_stop.load(std::memory_order_acquire)) break;
        capture();
      }
    });
  }

  auto start = std::chrono::steady_clock::now();
  if (options.concurrent) {
    // One thread per session, released together by a start gate so the
    // wall clock covers only overlapped execution. `go_time` (the shared
    // origin of every open-loop arrival schedule) is written before the
    // release store, so the acquire loop makes it visible to every thread.
    std::atomic<bool> go{false};
    std::chrono::steady_clock::time_point go_time;
    std::vector<std::thread> threads;
    threads.reserve(options.sessions);
    for (size_t i = 0; i < options.sessions; ++i) {
      threads.emplace_back([&, i] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        report.sessions[i] = sessions[i]->Run(go_time);
      });
    }
    start = std::chrono::steady_clock::now();
    go_time = start;
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < options.sessions; ++i) {
      // Serial replay: each session's schedule restarts at its own run,
      // so open-loop timing never changes the stream (or its hashes).
      report.sessions[i] = sessions[i]->Run(std::chrono::steady_clock::now());
    }
  }
  auto end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(end - start).count();

  if (scrubber.joinable()) {
    scrub_stop.store(true, std::memory_order_release);
    scrubber.join();
  }
  if (ticker.joinable()) {
    telemetry_stop.store(true, std::memory_order_release);
    ticker.join();
    capture();  // close the series after every writer has stopped
  }

  for (const SessionOutcome& s : report.sessions) {
    report.total_queries += s.queries;
    report.total_rows += s.rows;
    report.governance_trips += s.governance_trips;
    report.io_failures += s.io_failures;
    report.degraded_queries += s.degraded_queries;
    report.shed_queries += s.shed_queries;
    report.goodput_queries += s.goodput_queries;
  }
  // Every session has joined: the grid holds every successful query.
  std::vector<uint64_t> latency_counts;
  for (const RelaxedCounter& c : live.latency_buckets) {
    latency_counts.push_back(c.load());
  }
  report.p50_latency_micros =
      PercentileFromBuckets(LatencyBucketBounds(), latency_counts, 0.50);
  report.p99_latency_micros =
      PercentileFromBuckets(LatencyBucketBounds(), latency_counts, 0.99);
  report.queries_per_second =
      report.wall_seconds > 0
          ? static_cast<double>(report.total_queries) / report.wall_seconds
          : 0;
  report.goodput_qps =
      report.wall_seconds > 0
          ? static_cast<double>(report.goodput_queries) / report.wall_seconds
          : 0;

  uint64_t hits = 0, misses = 0;
  report.shard_deltas.resize(pool->shard_count());
  for (size_t i = 0; i < pool->shard_count(); ++i) {
    BufferPool::ShardStats now = pool->shard_stats(i);
    BufferPool::ShardStats& d = report.shard_deltas[i];
    d.hits = now.hits - before[i].hits;
    d.misses = now.misses - before[i].misses;
    d.evictions = now.evictions - before[i].evictions;
    d.writebacks = now.writebacks - before[i].writebacks;
    hits += d.hits;
    misses += d.misses;
  }
  report.hit_rate = (hits + misses) > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0;
  return report;
}

}  // namespace dynopt
