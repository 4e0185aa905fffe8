// Micro-benchmarks of the substrate primitives (google-benchmark):
// order-preserving codec, B+-tree insert/lookup/scan, buffer-pool hit and
// miss paths, the §5 descent estimation, and §2 distribution operators.
// After them runs the vectorization gate, which reports through the bench
// harness into BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "expr/predicate.h"
#include "harness.h"
#include "index/btree.h"
#include "stats/selectivity_dist.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/key_codec.h"
#include "util/rng.h"

namespace dynopt {
namespace {

/// Setup inside a benchmark cannot return its error: a failed step ends
/// the run non-zero.
void MustSucceed(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "bench_micro setup failed: %s\n", st.ToString().c_str());
  std::exit(2);
}

/// Allocates a page and unpins it.
PageId NewPageId(BufferPool* pool) {
  auto page = pool->NewPage();
  MustSucceed(page.status());
  return page->id();
}

void BM_EncodeInt64(benchmark::State& state) {
  Rng rng(1);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    EncodeInt64(static_cast<int64_t>(rng.Next()), &buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_EncodeInt64);

void BM_DecodeInt64(benchmark::State& state) {
  std::string buf;
  EncodeInt64(123456789, &buf);
  for (auto _ : state) {
    std::string_view sv(buf);
    int64_t v = 0;
    MustSucceed(DecodeInt64(&sv, &v));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_DecodeInt64);

void BM_EncodeString(benchmark::State& state) {
  std::string value(state.range(0), 'x');
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    EncodeString(value, &buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_EncodeString)->Arg(8)->Arg(64)->Arg(512);

struct TreeEnv {
  MemPageStore store;
  BufferPool pool{&store, 8192};
  std::unique_ptr<BTree> tree;
  Rng rng{7};

  explicit TreeEnv(int64_t n) {
    auto created = BTree::Create(&pool);
    MustSucceed(created.status());
    tree = std::move(*created);
    for (int64_t i = 0; i < n; ++i) {
      std::string key;
      EncodeInt64(i, &key);
      MustSucceed(tree->Insert(key, Rid{static_cast<PageId>(i), 0}));
    }
  }
};

void BM_BTreeInsert(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 8192);
  auto created = BTree::Create(&pool);
  MustSucceed(created.status());
  auto tree = std::move(*created);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key;
    EncodeInt64(i++, &key);
    benchmark::DoNotOptimize(tree->Insert(key, Rid{1, 0}));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreePointLookup(benchmark::State& state) {
  TreeEnv env(state.range(0));
  for (auto _ : state) {
    std::string key;
    EncodeInt64(env.rng.NextInt(0, state.range(0) - 1), &key);
    auto cursor = env.tree->NewCursor();
    MustSucceed(cursor.Seek(key));
    RidBatch entry;
    bool bound_hit = false;
    benchmark::DoNotOptimize(cursor.NextBatch("", 1, &entry, &bound_hit));
  }
}
BENCHMARK(BM_BTreePointLookup)->Arg(10000)->Arg(100000);

void BM_BTreeRangeScan1000(benchmark::State& state) {
  TreeEnv env(100000);
  for (auto _ : state) {
    std::string key;
    EncodeInt64(env.rng.NextInt(0, 99000), &key);
    auto cursor = env.tree->NewCursor();
    MustSucceed(cursor.Seek(key));
    RidBatch entries;
    bool bound_hit = false;
    benchmark::DoNotOptimize(cursor.NextBatch("", 1000, &entries, &bound_hit));
  }
}
BENCHMARK(BM_BTreeRangeScan1000);

void BM_BTreeEstimateRange(benchmark::State& state) {
  TreeEnv env(100000);
  for (auto _ : state) {
    int64_t lo = env.rng.NextInt(0, 90000);
    EncodedRange r;
    EncodeInt64(lo, &r.lo);
    EncodeInt64(lo + 5000, &r.hi);
    benchmark::DoNotOptimize(env.tree->EstimateRange(r));
  }
}
BENCHMARK(BM_BTreeEstimateRange);

void BM_BTreeSampleRanked(benchmark::State& state) {
  TreeEnv env(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.tree->SampleRange(EncodedRange::All(), env.rng));
  }
}
BENCHMARK(BM_BTreeSampleRanked);

void BM_BufferPoolHit(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 64);
  PageId id = NewPageId(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Pin(id));
  }
}
BENCHMARK(BM_BufferPoolHit);

// Pin+unpin at random across 12,000 resident pages of a 16,384-frame
// (16-shard) pool: each pin unlinks a frame from inside its shard's LRU
// and each unpin links it back in front, which one hot page never does.
void BM_BufferPoolHitSpread(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 16384);
  std::vector<PageId> ids;
  for (int i = 0; i < 12000; ++i) ids.push_back(NewPageId(&pool));
  Rng rng(7);
  std::vector<PageId> order(1 << 16);
  for (PageId& id : order) id = ids[rng.NextBounded(ids.size())];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Pin(order[i++ & (order.size() - 1)]));
  }
}
BENCHMARK(BM_BufferPoolHitSpread);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(NewPageId(&pool));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Pin(ids[i++ % ids.size()]));
  }
}
BENCHMARK(BM_BufferPoolMissEvict);

// ----------------------------------------------------- vectorized Tscan
//
// Row-at-a-time reference vs the batched engine over the same table and
// restriction. The reference mirrors the pre-vectorization TscanStepper
// exactly: heap cursor, full-record deserialize (strings and all), RowView
// Eval, per-row projection. The batched path goes through DynamicRetrieval
// and gets column-skipping deserializes, selection-vector filtering, and
// per-batch metering. The vectorization gate requires >= 2x between the
// two.

struct TscanEnv {
  Database db;
  Table* table = nullptr;
  RetrievalSpec spec;
  ParamMap params;

  explicit TscanEnv(int64_t rows)
      : db(DatabaseOptions{.pool_pages = 8192}) {
    auto t = db.CreateTable(
        "families", Schema({{"id", ValueType::kInt64},
                            {"age", ValueType::kInt64},
                            {"income", ValueType::kInt64},
                            {"city", ValueType::kString}}));
    MustSucceed(t.status());
    table = *t;
    Rng rng(42);
    for (int64_t i = 0; i < rows; ++i) {
      int64_t age = rng.NextInt(0, 99);
      int64_t income = rng.NextInt(0, 200000);
      std::string city = "city" + std::to_string(rng.NextBounded(50));
      MustSucceed(table->Insert(Record{i, age, income, city}).status());
    }
    spec.table = table;
    spec.restriction = Predicate::And(
        {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                            Operand::Literal(Value(int64_t{59}))),
         Predicate::Compare(2, CompareOp::kLt,
                            Operand::Literal(Value(int64_t{100000})))});
    spec.projection = {0, 1};
  }
};

TscanEnv* SharedTscanEnv() {
  static TscanEnv env(120000);
  return &env;
}

Result<size_t> TscanRowReference(TscanEnv* env) {
  auto cursor = env->table->heap()->NewCursor();
  BufferPool* pool = env->db.pool();
  const Schema& schema = env->table->schema();
  std::string bytes;
  Rid rid;
  Record record;
  CostMeter accrued;
  // The row-at-a-time engine's delivery unit: projected values plus RID,
  // each in its own allocation, queued and popped one by one.
  struct QueuedRow {
    std::vector<Value> values;
    Rid rid;
  };
  std::deque<QueuedRow> queue;
  size_t delivered = 0;
  for (;;) {
    // One seed-stepper step per row: a meter scope around the work,
    // full-record deserialize, RowView Eval, survivors round-trip through
    // the engine's output queue.
    ScopedCostMeter scope(&accrued, pool->shared_meter());
    DYNOPT_ASSIGN_OR_RETURN(bool more, cursor.Next(&bytes, &rid));
    if (!more) break;
    DYNOPT_RETURN_IF_ERROR(DeserializeRecord(schema, bytes, &record));
    RowView view(&record);
    pool->meter_ptr()->record_evals++;
    DYNOPT_ASSIGN_OR_RETURN(bool keep,
                            env->spec.restriction->Eval(view, env->params));
    if (!keep) continue;
    std::vector<Value> out;
    out.reserve(env->spec.projection.size());
    for (uint32_t c : env->spec.projection) out.push_back(record[c]);
    queue.push_back(QueuedRow{std::move(out), rid});
    QueuedRow row = std::move(queue.front());
    queue.pop_front();
    benchmark::DoNotOptimize(row);
    delivered++;
  }
  benchmark::DoNotOptimize(accrued);
  return delivered;
}

Result<size_t> TscanBatched(TscanEnv* env, size_t batch_size) {
  RetrievalOptions opt;
  opt.batch_size = batch_size;
  DynamicRetrieval engine(&env->db, env->spec, opt);
  DYNOPT_RETURN_IF_ERROR(engine.Open(env->params));
  RowBatch batch;
  size_t delivered = 0;
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, engine.NextBatch(&batch));
    if (!more) break;
    benchmark::DoNotOptimize(batch);
    delivered += batch.num_rows();
  }
  return delivered;
}

void BM_TscanRestrictionRowRef(benchmark::State& state) {
  TscanEnv* env = SharedTscanEnv();
  size_t delivered = 0;
  for (auto _ : state) {
    auto n = TscanRowReference(env);
    MustSucceed(n.status());
    delivered = *n;
  }
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_TscanRestrictionRowRef)->Unit(benchmark::kMillisecond);

void BM_TscanRestrictionBatch(benchmark::State& state) {
  TscanEnv* env = SharedTscanEnv();
  size_t delivered = 0;
  for (auto _ : state) {
    auto n = TscanBatched(env, static_cast<size_t>(state.range(0)));
    MustSucceed(n.status());
    delivered = *n;
  }
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_TscanRestrictionBatch)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DistAndUnknown(benchmark::State& state) {
  auto u = SelectivityDist::Uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.AndUnknown(u));
  }
}
BENCHMARK(BM_DistAndUnknown)->Unit(benchmark::kMillisecond);

}  // namespace

// Interleaved row/batch pairs the vectorization gate reads its median
// over: enough that a few noisy pairs cannot move the median.
constexpr int kGatePairs = 11;

// Hard regression gate for the vectorized executor: the batched Tscan
// restriction path must beat the row-at-a-time reference by at least 2x,
// read as the median per-pair speedup over interleaved pairs, and both
// paths must deliver the same rows on every run.
Status RunTscanVectorizationGate(Report* report) {
  TscanEnv* env = SharedTscanEnv();
  DYNOPT_ASSIGN_OR_RETURN(size_t row_n,
                          TscanRowReference(env));  // warms the pool
  DYNOPT_ASSIGN_OR_RETURN(size_t batch_n, TscanBatched(env, kDefaultBatchRows));
  bool same_rows = row_n == batch_n;
  auto timed = [&](auto run) -> Result<double> {
    Stopwatch watch;
    DYNOPT_ASSIGN_OR_RETURN(size_t n, run());
    double seconds = watch.Seconds();
    same_rows &= n == row_n;
    return seconds;
  };
  DYNOPT_ASSIGN_OR_RETURN(
      Interleaved runs,
      RunInterleaved(
          kGatePairs,
          [&] { return timed([&] { return TscanRowReference(env); }); },
          [&] {
            return timed([&] { return TscanBatched(env, kDefaultBatchRows); });
          }));
  std::vector<double> speedups;
  for (int i = 0; i < kGatePairs; ++i) {
    speedups.push_back(runs.a[i] / runs.b[i]);
  }
  std::printf("\nTscan restriction, median of %d interleaved pairs "
              "(delivered %zu/%zu):\n",
              kGatePairs, row_n, batch_n);
  report->Print("row.median_ms", Quantile(runs.a, 0.5) * 1e3,
                "  row   %.2f ms");
  report->Print("batch.median_ms", Quantile(runs.b, 0.5) * 1e3,
                "  batch %.2f ms");
  double speedup = report->PrintMedian(
      "speedup", speedups,
      "vectorization speedup: median %.2fx, quartiles %.2fx / %.2fx "
      "(gate >= 2x)");
  report->Gate(same_rows,
               "row and batch paths delivered different row counts");
  report->Gate(speedup >= 2.0, "vectorization speedup %.2fx below the 2x gate",
               speedup);
  return Status::OK();
}

}  // namespace dynopt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dynopt::Report report("micro");
  return report.Finish(dynopt::RunTscanVectorizationGate(&report));
}
