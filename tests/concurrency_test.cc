// Concurrency tests: the sharded buffer pool under multi-threaded stress,
// relaxed-atomic accounting exactness, concurrent-vs-serial session
// stream equivalence, and each execution's cost staying its own beside
// other sessions.
//
// The stress tests are written to be TSan-clean by construction: threads
// share pages only for reading; every page a thread writes is private to
// it. Ordering for flush/eviction rides on the shard mutexes, and
// MarkDirty() is an atomic flag — so a clean TSan run here certifies the
// pool's locking protocol, not a lucky schedule.

#include <atomic>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/atomic_counter.h"
#include "util/cost_meter.h"
#include "util/rng.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

// ------------------------------------------------------ relaxed counters

TEST(RelaxedCounterTest, ExactUnderConcurrentIncrements) {
  RelaxedCounter counter;
  RelaxedDouble total;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        counter++;
        total.Add(0.5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), uint64_t{kThreads} * kIters);
  EXPECT_DOUBLE_EQ(total.load(), kThreads * kIters * 0.5);
}

TEST(RelaxedCounterTest, CostMeterChargesExactUnderThreads) {
  CostMeter meter;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        meter.logical_reads++;
        meter.key_compares += 3;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(meter.logical_reads.load(), uint64_t{kThreads} * kIters);
  EXPECT_EQ(meter.key_compares.load(), uint64_t{kThreads} * kIters * 3);
}

TEST(MetricsTest, CounterAndHistogramExactUnderThreads) {
  MetricsRegistry registry;
  Counter* c = registry.counter("stress.ops");
  Histogram* h = registry.histogram("stress.lat", {1, 10, 100});
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c->value++;
        h->Observe(static_cast<double>((t + i) % 200));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value.load(), uint64_t{kThreads} * kIters);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kIters);
  uint64_t bucket_total = 0;
  for (const RelaxedCounter& b : h->buckets()) bucket_total += b.load();
  EXPECT_EQ(bucket_total, uint64_t{kThreads} * kIters);
}

// ------------------------------------------------------------ pool shape

TEST(ShardedPoolTest, ShardCountRoundsDownToPowerOfTwo) {
  MemPageStore store;
  BufferPool pool(&store, 256, nullptr, 6);
  EXPECT_EQ(pool.shard_count(), 4u);
}

TEST(ShardedPoolTest, AutoShardCountScalesWithCapacity) {
  MemPageStore store;
  BufferPool small(&store, 64);
  EXPECT_EQ(small.shard_count(), 1u) << "small pools stay single-LRU";
  BufferPool medium(&store, 256);
  EXPECT_EQ(medium.shard_count(), 4u);
  BufferPool large(&store, 4096);
  EXPECT_EQ(large.shard_count(), 16u) << "shard count is capped";
}

TEST(ShardedPoolTest, ShardOfIsDeterministicAndInRange) {
  MemPageStore store;
  BufferPool pool(&store, 512, nullptr, 8);
  ASSERT_EQ(pool.shard_count(), 8u);
  std::set<size_t> used;
  for (PageId id = 0; id < 1000; ++id) {
    size_t s = pool.ShardOf(id);
    EXPECT_EQ(s, pool.ShardOf(id));
    ASSERT_LT(s, pool.shard_count());
    used.insert(s);
  }
  // The hash must actually spread ids; a thousand consecutive ids landing
  // in a couple of shards would serialize the whole workload.
  EXPECT_GE(used.size(), 6u);
}

TEST(ShardedPoolTest, StatsSumAcrossShards) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 256, &meter, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok());
    ids.push_back(p->id());
  }
  for (PageId id : ids) ASSERT_TRUE(pool.Pin(id).ok());
  BufferPool::ShardStats total = pool.TotalStats();
  uint64_t hits = 0, misses = 0;
  for (size_t s = 0; s < pool.shard_count(); ++s) {
    hits += pool.shard_stats(s).hits;
    misses += pool.shard_stats(s).misses;
  }
  EXPECT_EQ(total.hits, hits);
  EXPECT_EQ(total.misses, misses);
  EXPECT_EQ(hits, 64u);  // every re-pin of a cached page is a hit
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

// ---------------------------------------------------------- pool stress

// Shared read-only pages + per-thread private pages, with a chaos thread
// flushing/evicting/scrambling throughout. Verifies data integrity, pin
// accounting, and structural invariants after the dust settles.
TEST(ShardedPoolTest, MultiThreadedStressKeepsDataAndInvariants) {
  MemPageStore store;
  CostMeter meter;
  BufferPool pool(&store, 128, &meter, 8);
  ASSERT_EQ(pool.shard_count(), 8u);

  // Shared pages: filled once with a pattern derived from the id, flushed,
  // and never dirtied again.
  constexpr int kSharedPages = 48;
  std::vector<PageId> shared;
  for (int i = 0; i < kSharedPages; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok());
    uint8_t* d = p->mutable_data();
    for (size_t b = 0; b < 64; ++b) {
      d[b] = static_cast<uint8_t>((p->id() * 31 + b) & 0xFF);
    }
    shared.push_back(p->id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  constexpr int kThreads = 4;
  constexpr int kPrivatePages = 4;
  constexpr int kIters = 1500;
  // Private pages: each thread increments byte 0 of its own pages only.
  std::vector<std::vector<PageId>> priv(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPrivatePages; ++i) {
      auto p = pool.NewPage();
      ASSERT_TRUE(p.ok());
      priv[t].push_back(p->id());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      std::vector<uint32_t> counts(kPrivatePages, 0);
      for (int i = 0; i < kIters; ++i) {
        if (rng.NextDouble() < 0.8) {
          PageId id = shared[rng.NextBounded(shared.size())];
          auto g = pool.Pin(id);
          if (!g.ok()) {
            failures++;
            continue;
          }
          const uint8_t* d = g->data();
          for (size_t b = 0; b < 64; ++b) {
            if (d[b] != static_cast<uint8_t>((id * 31 + b) & 0xFF)) {
              failures++;
              break;
            }
          }
        } else {
          size_t k = rng.NextBounded(kPrivatePages);
          auto g = pool.Pin(priv[t][k]);
          if (!g.ok()) {
            failures++;
            continue;
          }
          uint32_t prev;
          memcpy(&prev, g->data(), sizeof prev);
          if (prev != counts[k]) failures++;
          counts[k]++;
          memcpy(g->mutable_data(), &counts[k], sizeof counts[k]);
        }
      }
    });
  }
  std::thread chaos([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(pool.FlushAll().ok());
      EXPECT_TRUE(pool.ScrambleCache(rng, 0.3).ok());
      EXPECT_TRUE(pool.EvictAll().ok());
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(pool.CheckInvariants().ok());

  // Evict everything: every private page's final count must have survived
  // through the store (writeback order vs. chaos flushes notwithstanding).
  ASSERT_TRUE(pool.EvictAll().ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPrivatePages; ++k) {
      auto g = pool.Pin(priv[t][k]);
      ASSERT_TRUE(g.ok());
      uint32_t final_count;
      memcpy(&final_count, g->data(), sizeof final_count);
      EXPECT_GT(final_count, 0u) << "thread " << t << " page " << k;
    }
  }
}

TEST(ShardedPoolTest, ConcurrentNewPageYieldsDistinctIds) {
  MemPageStore store;
  BufferPool pool(&store, 128, nullptr, 8);
  constexpr int kThreads = 4;
  constexpr int kPages = 20;
  std::vector<std::vector<PageId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPages; ++i) {
        auto p = pool.NewPage();
        if (p.ok()) ids[t].push_back(p->id());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<PageId> unique;
  for (auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), size_t{kThreads} * kPages);
  EXPECT_EQ(store.page_count(), size_t{kThreads} * kPages);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

// ------------------------------------------------- session-stream driver

TEST(SessionWorkloadTest, ConcurrentMatchesSerialResultSets) {
  Database db(DatabaseOptions{.pool_pages = 256, .pool_shards = 8});
  auto table = BuildFamilies(&db, 4000, 42, /*payload_bytes=*/40);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());

  SessionWorkloadOptions opts;
  opts.sessions = 4;
  opts.queries_per_session = 25;
  opts.seed = 777;

  opts.concurrent = true;
  auto concurrent = RunSessionWorkload(&db, *table, opts);
  ASSERT_TRUE(concurrent.ok());
  opts.concurrent = false;
  auto serial = RunSessionWorkload(&db, *table, opts);
  ASSERT_TRUE(serial.ok());

  ASSERT_EQ(concurrent->sessions.size(), serial->sessions.size());
  for (size_t i = 0; i < serial->sessions.size(); ++i) {
    EXPECT_EQ(concurrent->sessions[i].error, "") << "session " << i;
    EXPECT_EQ(serial->sessions[i].error, "") << "session " << i;
    EXPECT_EQ(concurrent->sessions[i].queries, opts.queries_per_session);
    // The interference the sessions inflict on each other may change
    // tactics and cost, but never results.
    EXPECT_EQ(concurrent->sessions[i].result_hash,
              serial->sessions[i].result_hash)
        << "session " << i << " result set diverged under concurrency";
    EXPECT_EQ(concurrent->sessions[i].rows, serial->sessions[i].rows);
  }
  EXPECT_EQ(concurrent->total_queries,
            uint64_t{opts.sessions} * opts.queries_per_session);
  EXPECT_GT(concurrent->total_rows, 0u);
  EXPECT_EQ(concurrent->shard_deltas.size(), db.pool()->shard_count());
  EXPECT_TRUE(db.pool()->CheckInvariants().ok());
}

TEST(SessionWorkloadTest, ReportAggregatesAreConsistent) {
  Database db(DatabaseOptions{.pool_pages = 128});
  auto table = BuildFamilies(&db, 1000, 7);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("by_age", {"age"}).ok());

  SessionWorkloadOptions opts;
  opts.sessions = 2;
  opts.queries_per_session = 10;
  opts.concurrent = false;
  auto report = RunSessionWorkload(&db, *table, opts);
  ASSERT_TRUE(report.ok());
  uint64_t q = 0, r = 0;
  for (const SessionOutcome& s : report->sessions) {
    q += s.queries;
    r += s.rows;
  }
  EXPECT_EQ(report->total_queries, q);
  EXPECT_EQ(report->total_rows, r);
  EXPECT_GE(report->hit_rate, 0.0);
  EXPECT_LE(report->hit_rate, 1.0);
  EXPECT_GT(report->queries_per_second, 0.0);
}

// ------------------------------------------ one cost meter per execution

// What one execution decided and charged: its event log, its own meter,
// each strategy span's cost, and a hash of its rows in delivery order.
struct ExecutionRecord {
  std::string events;
  std::string cost;
  std::string span_costs;
  uint64_t result_hash = 14695981039346656037ull;

  bool operator==(const ExecutionRecord&) const = default;
};

void AppendSpanCosts(const ProfileSpan* span, std::ostringstream* os) {
  if (span == nullptr) return;
  if (span->kind == SpanKind::kStrategy) {
    *os << span->name << "=" << std::setprecision(17) << span->actual_cost
        << ";";
  }
  for (const ProfileSpan* child : span->children) AppendSpanCosts(child, os);
}

// Pulls up to `max_rows` rows from `engine` into `rec`'s hash; false at
// the end of the retrieval, when the rest of `rec` is filled in.
Result<bool> Pull(DynamicRetrieval* engine, size_t max_rows,
                  ExecutionRecord* rec) {
  RowBatch batch;
  DYNOPT_ASSIGN_OR_RETURN(bool more, engine->NextBatch(&batch, max_rows));
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    rec->result_hash = (rec->result_hash ^ batch.rid(r).ToU64()) *
                       1099511628211ull;
  }
  if (more) return true;
  rec->events = engine->events().ToJson();
  rec->cost = engine->CostSinceOpen().ToString();
  std::ostringstream spans;
  AppendSpanCosts(engine->profile().root(), &spans);
  rec->span_costs = spans.str();
  return false;
}

// Opens `engine` on `params` and drains it `max_rows` at a time.
ExecutionRecord RunExecution(DynamicRetrieval* engine,
                             const ParamMap& params, size_t max_rows) {
  ExecutionRecord rec;
  Status st = engine->Open(params);
  for (bool more = st.ok(); more;) {
    auto pulled = Pull(engine, max_rows, &rec);
    st = pulled.status();
    more = pulled.ok() && *pulled;
  }
  EXPECT_TRUE(st.ok()) << st;
  return rec;
}

// FAMILIES with three indexes in a pool that holds the whole database,
// and the four kinds of retrieval that race or pace strategies by cost:
// fast-first, total-time, ORDER BY and index-only, 8 parameter sets each.
struct IsolationFixture {
  Database db{DatabaseOptions{.pool_pages = 4096}};
  Table* table = nullptr;
  std::vector<RetrievalSpec> specs;
  std::vector<ParamMap> params;

  IsolationFixture() {
    auto t = BuildFamilies(&db, 10000, 42);
    EXPECT_TRUE(t.ok()) << t.status();
    table = *t;
    EXPECT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
    EXPECT_TRUE(table->CreateIndex("by_income", {"income"}).ok());
    EXPECT_TRUE(table->CreateIndex("by_age_income", {"age", "income"}).ok());
    auto restriction = Predicate::And(
        {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
         Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("inc"))});
    auto spec = [&](std::vector<uint32_t> proj, OptimizationGoal goal) {
      RetrievalSpec s;
      s.table = table;
      s.restriction = restriction;
      s.projection = std::move(proj);
      s.goal = goal;
      return s;
    };
    specs.push_back(spec({0, 1, 2, 3}, OptimizationGoal::kFastFirst));
    specs.push_back(spec({0, 1, 2, 3}, OptimizationGoal::kTotalTime));
    specs.push_back(spec({0, 1, 2}, OptimizationGoal::kTotalTime));
    specs.back().order_by_column = 1;
    specs.push_back(spec({1, 2}, OptimizationGoal::kTotalTime));
    for (int64_t i = 0; i < 8; ++i) {
      int64_t lo = 3 + 11 * i;
      params.push_back({{"lo", Value(lo)},
                        {"hi", Value(lo + 2 + 5 * (i % 4))},
                        {"inc", Value(int64_t{2000} + 9000 * (i % 5))}});
    }
  }

  // Every (spec, parameter set) run once on a fresh engine, pulled
  // `max_rows` at a time.
  std::vector<ExecutionRecord> RunAll(size_t max_rows) {
    std::vector<ExecutionRecord> out;
    for (const RetrievalSpec& s : specs) {
      for (const ParamMap& p : params) {
        DynamicRetrieval engine(&db, s);
        out.push_back(RunExecution(&engine, p, max_rows));
      }
    }
    return out;
  }
};

// Counts the runs of `got` that differ from their serial twin in `want`,
// naming the first few.
int CountDiffering(const std::vector<ExecutionRecord>& want,
                   const std::vector<ExecutionRecord>& got) {
  EXPECT_EQ(want.size(), got.size());
  int differing = 0;
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (++differing <= 3) {
      ADD_FAILURE() << "run " << i << " differs from its serial twin:\n"
                    << "  cost " << got[i].cost << " vs " << want[i].cost
                    << "\n  spans " << got[i].span_costs << " vs "
                    << want[i].span_costs << "\n  events "
                    << (got[i].events == want[i].events ? "same" : "differ")
                    << ", rows "
                    << (got[i].result_hash == want[i].result_hash ? "same"
                                                                  : "differ");
    }
  }
  return differing;
}

// Each execution charges its own meter, so three Tscan sessions beside it
// change none of what it decides or reports: its events, its
// CostSinceOpen(), each strategy's span cost and its rows all match the
// serial run. No page is read physically, so no §3(c) cache interference
// is in play; only a shared tally could make them differ.
TEST(SessionWorkloadTest, EachExecutionCostIsItsOwnBesideTscanSessions) {
  IsolationFixture f;
  uint64_t physical = f.db.meter().physical_reads;
  std::vector<ExecutionRecord> serial = f.RunAll(kDefaultBatchRows);

  RetrievalSpec tscan;
  tscan.table = f.table;
  tscan.restriction = Predicate::Compare(3, CompareOp::kEq,
                                         Operand::Literal(Value("city7")));
  tscan.projection = {0, 3};
  constexpr int kTscanSessions = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kTscanSessions; ++t) {
    sessions.emplace_back([&] {
      bool counted = false;
      while (!stop.load()) {
        DynamicRetrieval engine(&f.db, tscan);
        RunExecution(&engine, {}, kDefaultBatchRows);
        EXPECT_EQ(engine.tactic(), Tactic::kStaticTscan);
        if (!counted) started.fetch_add(1);
        counted = true;
      }
    });
  }
  while (started.load() < kTscanSessions) std::this_thread::yield();
  int differing = 0;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    differing += CountDiffering(serial, f.RunAll(kDefaultBatchRows));
  }
  stop.store(true);
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(differing, 0) << "of " << kRounds * serial.size()
                          << " concurrent runs";
  EXPECT_EQ(f.db.meter().physical_reads, physical);
}

// Two executions pulled a row at a time, alternately, on one thread: each
// counts only its own work.
TEST(SessionWorkloadTest, AlternatelyPulledExecutionsKeepTheirOwnCosts) {
  IsolationFixture f;
  std::vector<ExecutionRecord> serial = f.RunAll(1);
  std::vector<ExecutionRecord> alternate;
  for (const RetrievalSpec& spec : f.specs) {
    for (size_t p = 0; p < f.params.size(); p += 2) {
      DynamicRetrieval a(&f.db, spec);
      DynamicRetrieval b(&f.db, spec);
      ExecutionRecord rec_a;
      ExecutionRecord rec_b;
      ASSERT_TRUE(a.Open(f.params[p]).ok());
      ASSERT_TRUE(b.Open(f.params[p + 1]).ok());
      bool more_a = true;
      bool more_b = true;
      while (more_a || more_b) {
        if (more_a) {
          auto pulled = Pull(&a, 1, &rec_a);
          ASSERT_TRUE(pulled.ok()) << pulled.status();
          more_a = *pulled;
        }
        if (more_b) {
          auto pulled = Pull(&b, 1, &rec_b);
          ASSERT_TRUE(pulled.ok()) << pulled.status();
          more_b = *pulled;
        }
      }
      alternate.push_back(std::move(rec_a));
      alternate.push_back(std::move(rec_b));
    }
  }
  EXPECT_EQ(CountDiffering(serial, alternate), 0);
}

}  // namespace
}  // namespace dynopt
