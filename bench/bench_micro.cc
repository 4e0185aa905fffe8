// Micro-benchmarks of the substrate primitives (google-benchmark):
// order-preserving codec, B+-tree insert/lookup/scan, buffer-pool hit and
// miss paths, the §5 descent estimation, and §2 distribution operators.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "expr/predicate.h"
#include "index/btree.h"
#include "stats/selectivity_dist.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/key_codec.h"
#include "util/rng.h"

namespace dynopt {
namespace {

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
    int64_t v;
    DecodeInt64(&sv, &v).ok();
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
    tree = std::move(*BTree::Create(&pool));
    for (int64_t i = 0; i < n; ++i) {
      std::string key;
      EncodeInt64(i, &key);
      tree->Insert(key, Rid{static_cast<PageId>(i), 0}).ok();
    }
  }
};

void BM_BTreeInsert(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 8192);
  auto tree = std::move(*BTree::Create(&pool));
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
    cursor.Seek(key).ok();
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
    cursor.Seek(key).ok();
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
  PageId id = (*pool.NewPage()).id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Pin(id));
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  MemPageStore store;
  BufferPool pool(&store, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back((*pool.NewPage()).id());
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
// per-batch metering. main() gates on >= 2x between the two.

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
    table = *t;
    Rng rng(42);
    for (int64_t i = 0; i < rows; ++i) {
      int64_t age = rng.NextInt(0, 99);
      int64_t income = rng.NextInt(0, 200000);
      std::string city = "city" + std::to_string(rng.NextBounded(50));
      table->Insert(Record{i, age, income, city}).ok();
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

size_t TscanRowReference(TscanEnv* env) {
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
    auto more = cursor.Next(&bytes, &rid);
    if (!more.ok() || !*more) break;
    if (!DeserializeRecord(schema, bytes, &record).ok()) break;
    RowView view(&record);
    pool->meter_ptr()->record_evals++;
    auto keep = env->spec.restriction->Eval(view, env->params);
    if (!keep.ok() || !*keep) continue;
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

size_t TscanBatched(TscanEnv* env, size_t batch_size) {
  RetrievalOptions opt;
  opt.batch_size = batch_size;
  DynamicRetrieval engine(&env->db, env->spec, opt);
  if (!engine.Open(env->params).ok()) return 0;
  RowBatch batch;
  size_t delivered = 0;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    if (!more.ok() || !*more) break;
    benchmark::DoNotOptimize(batch);
    delivered += batch.num_rows();
  }
  return delivered;
}

void BM_TscanRestrictionRowRef(benchmark::State& state) {
  TscanEnv* env = SharedTscanEnv();
  size_t delivered = 0;
  for (auto _ : state) delivered = TscanRowReference(env);
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_TscanRestrictionRowRef)->Unit(benchmark::kMillisecond);

void BM_TscanRestrictionBatch(benchmark::State& state) {
  TscanEnv* env = SharedTscanEnv();
  size_t delivered = 0;
  for (auto _ : state) {
    delivered = TscanBatched(env, static_cast<size_t>(state.range(0)));
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

// Hard regression gate for the vectorized executor: the batched Tscan
// restriction path must beat the row-at-a-time reference by at least 2x.
// Returns non-zero (failing the bench run, and CI with it) when it does
// not, or when the two paths disagree on delivered row counts.
int RunTscanVectorizationGate() {
  TscanEnv* env = SharedTscanEnv();
  auto best_of = [](auto&& fn) {
    double best = 1e300;
    for (int i = 0; i < 5; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(fn());
      auto t1 = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  size_t row_n = TscanRowReference(env);  // warm the buffer pool
  size_t batch_n = TscanBatched(env, kDefaultBatchRows);
  double row_t = best_of([&] { return TscanRowReference(env); });
  double batch_t = best_of([&] { return TscanBatched(env, kDefaultBatchRows); });
  double speedup = row_t / batch_t;
  std::fprintf(stderr,
               "Tscan restriction: row=%.2fms batch=%.2fms speedup=%.2fx "
               "(gate >= 2.0x; delivered %zu/%zu)\n",
               row_t * 1e3, batch_t * 1e3, speedup, row_n, batch_n);
  if (batch_n != row_n) {
    std::fprintf(stderr,
                 "FAIL: row and batch paths delivered different row counts\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: vectorization speedup below the 2x gate\n");
    return 1;
  }
  return 0;
}

}  // namespace dynopt

// Like BENCHMARK_MAIN(), but defaults the file reporter to
// BENCH_micro.json; flags passed on the command line still win because
// they are parsed after the injected defaults.
int main(int argc, char** argv) {
  std::string out = "--benchmark_out=BENCH_micro.json";
  std::string fmt = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out.data());
  args.push_back(fmt.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return dynopt::RunTscanVectorizationGate();
}
