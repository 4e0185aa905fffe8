// Batch-vs-row golden equality.
//
// The vectorized executor must be invisible: for any batch size —
// including 1, which recovers the old row-at-a-time interleaving — the
// same query over the same data delivers exactly the same rows, the same
// ordered streams, the same typed governance errors, and the same
// degraded-fallback dedup guarantees. These suites pin that property, plus
// EvalBatch-vs-Eval equivalence and the exec.* batch telemetry.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "expr/predicate.h"
#include "expr/value.h"
#include "families.h"
#include "storage/fault_store.h"
#include "storage/page_store.h"
#include "util/rng.h"

namespace dynopt {
namespace {

std::string RowKey(const std::vector<Value>& values, Rid rid) {
  std::string key = std::to_string(rid.ToU64());
  for (const Value& v : values) {
    key += '|';
    key += v.ToString();
  }
  return key;
}

const size_t kBatchSizes[] = {1, 3, 1024};

TEST(BatchGoldenTest, TscanResultsIdenticalAcrossBatchSizes) {
  Families f(4000);
  std::vector<PredicateRef> preds;
  preds.push_back(Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                                     Operand::Literal(Value(int64_t{60}))));
  preds.push_back(Predicate::Contains(3, "city1"));
  preds.push_back(Predicate::And(
      {Predicate::Mod(0, 3, 1),
       Predicate::Compare(2, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{50000})))}));
  preds.push_back(Predicate::Or(
      {Predicate::Compare(1, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{5}))),
       Predicate::Not(Predicate::Contains(3, "city"))}));
  ParamMap params;
  for (const auto& pred : preds) {
    RetrievalSpec spec = f.Spec(pred, {0, 1, 3});
    auto golden = RowSet(NaiveRows(spec, params));
    for (size_t bs : kBatchSizes) {
      RetrievalOptions opt;
      opt.batch_size = bs;
      DynamicRetrieval engine(&f.db, spec, opt);
      ASSERT_TRUE(engine.Open(params).ok());
      EXPECT_EQ(RowSet(DrainRows(&engine)), golden)
          << pred->ShapeString() << " batch_size=" << bs;
    }
  }
}

TEST(BatchGoldenTest, IndexTacticsIdenticalAcrossBatchSizes) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  f.Index("by_age_income", {"age", "income"});
  std::vector<std::pair<PredicateRef, OptimizationGoal>> cases;
  // Jscan material: two selective ranges to intersect.
  cases.push_back({Predicate::And(
                       {Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                           Operand::Literal(Value(int64_t{30}))),
                        Predicate::Compare(2, CompareOp::kLt,
                                           Operand::Literal(Value(int64_t{40000})))}),
                   OptimizationGoal::kTotalTime});
  // Fast-first borrowing path.
  cases.push_back({Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                      Operand::Literal(Value(int64_t{15}))),
                   OptimizationGoal::kFastFirst});
  // Covering-index (Sscan) material: restriction + projection covered.
  cases.push_back({Predicate::Between(1, Operand::Literal(Value(int64_t{40})),
                                      Operand::Literal(Value(int64_t{45}))),
                   OptimizationGoal::kTotalTime});
  ParamMap params;
  for (auto& [pred, goal] : cases) {
    std::vector<uint32_t> proj =
        goal == OptimizationGoal::kFastFirst ? std::vector<uint32_t>{0, 1}
                                             : std::vector<uint32_t>{1, 2};
    RetrievalSpec spec = f.Spec(pred, proj, goal);
    auto golden = RowSet(NaiveRows(spec, params));
    for (size_t bs : kBatchSizes) {
      RetrievalOptions opt;
      opt.batch_size = bs;
      DynamicRetrieval engine(&f.db, spec, opt);
      ASSERT_TRUE(engine.Open(params).ok());
      EXPECT_EQ(RowSet(DrainRows(&engine)), golden)
          << pred->ShapeString() << " batch_size=" << bs;
    }
  }
}

TEST(BatchGoldenTest, OrderByStreamIdenticalAcrossBatchSizes) {
  Families f(6000);
  f.Index("by_age", {"age"});
  auto pred =
      Predicate::Compare(2, CompareOp::kLt,
                         Operand::Literal(Value(int64_t{60000})));
  ParamMap params;
  // Once through the ordered index, once through the sort fallback (no
  // usable order index on income).
  for (uint32_t order_col : {uint32_t{1}, uint32_t{2}}) {
    std::vector<std::vector<std::vector<Value>>> streams;
    for (size_t bs : kBatchSizes) {
      RetrievalSpec spec = f.Spec(pred, {0, 1, 2});
      spec.order_by_column = order_col;
      auto plan = PlanNode::Retrieve(spec);
      plan->retrieval_options.batch_size = bs;
      auto op = CompilePlan(&f.db, *plan, &params);
      ASSERT_TRUE(op.ok()) << op.status();
      ASSERT_TRUE((*op)->Open().ok());
      std::vector<std::vector<Value>> rows;
      for (;;) {
        auto more = (*op)->NextBatch(&rows);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
      }
      ASSERT_GT(rows.size(), 100u);
      size_t pos = order_col == 1 ? 1 : 2;
      for (size_t i = 1; i < rows.size(); ++i) {
        ASSERT_FALSE(TotalValueLess(rows[i][pos], rows[i - 1][pos]))
            << "misordered at " << i << " batch_size=" << bs;
      }
      streams.push_back(std::move(rows));
    }
    // The full sequences agree pairwise on the order column, and the row
    // multisets are identical (ties may permute between equal keys).
    for (size_t s = 1; s < streams.size(); ++s) {
      ASSERT_EQ(streams[s].size(), streams[0].size());
      auto canon = [](const std::vector<std::vector<Value>>& rows) {
        std::multiset<std::string> out;
        for (const auto& r : rows) {
          std::string key;
          for (const Value& v : r) key += v.ToString() + "|";
          out.insert(key);
        }
        return out;
      };
      EXPECT_EQ(canon(streams[s]), canon(streams[0]));
    }
  }
}

TEST(BatchGoldenTest, GovernedTripsSurfaceAtBatchBoundaries) {
  Families f(8000);
  f.Index("by_age", {"age"});
  auto pred = Predicate::Between(1, Operand::Literal(Value(int64_t{5})),
                                 Operand::Literal(Value(int64_t{80})));
  ParamMap params;
  for (size_t bs : kBatchSizes) {
    for (StatusCode code :
         {StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
      QueryContext ctx;
      ctx.TripAfterPolls(2, code);
      RetrievalOptions opt;
      opt.batch_size = bs;
      DynamicRetrieval engine(&f.db, f.Spec(pred, {0, 1}), opt);
      ASSERT_TRUE(engine.Open(params, &ctx).ok());
      RowBatch batch;
      Status st = Status::OK();
      for (;;) {
        auto more = engine.NextBatch(&batch);
        if (!more.ok()) {
          st = more.status();
          break;
        }
        if (!*more) break;
      }
      // The trip fires at a batch boundary regardless of quantum, with the
      // context's typed code and no pins left behind.
      ASSERT_FALSE(st.ok()) << "batch_size=" << bs;
      EXPECT_EQ(st.code(), code) << "batch_size=" << bs;
      EXPECT_EQ(f.db.pool()->PinnedPages(), 0u);
      EXPECT_TRUE(f.db.pool()->CheckInvariants().ok());
    }
  }
}

TEST(BatchGoldenTest, DegradedFallbackMidBatchKeepsGoldenRows) {
  // An ordered Fscan dies to an index fault *inside* a batch: the engine
  // falls back to Tscan, dedups what the batch had already delivered, and
  // the operator re-sorts the remainder — at the default (1024) quantum.
  auto store = std::make_unique<FaultInjectingPageStore>(
      std::make_unique<MemPageStore>());
  FaultInjectingPageStore* faults = store.get();
  DatabaseOptions dbo;
  dbo.pool_pages = 64;
  Database db(std::move(dbo), std::move(store));
  auto t = BuildFamilies(&db, 30000);
  ASSERT_TRUE(t.ok());
  Table* table = *t;
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
  faults->ClassifyHeapPages(table->heap()->pages());
  faults->FreezeClassification();

  RetrievalSpec spec;
  spec.table = table;
  spec.restriction =
      Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                         Operand::Literal(Value(int64_t{45})));
  spec.projection = {0, 1};
  spec.order_by_column = 1;
  auto plan = PlanNode::Retrieve(spec);
  ParamMap params;

  auto drain = [](RowOperator* op, std::vector<int64_t>* ages,
                  std::multiset<int64_t>* ids) -> Status {
    std::vector<std::vector<Value>> rows;
    for (;;) {
      rows.clear();
      auto more = op->NextBatch(&rows, 1);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      for (const auto& row : rows) {
        if (ages != nullptr) ages->push_back(row[1].AsInt64());
        if (ids != nullptr) ids->insert(row[0].AsInt64());
      }
    }
  };

  auto golden_op = CompilePlan(&db, *plan, &params);
  ASSERT_TRUE(golden_op.ok());
  ASSERT_TRUE((*golden_op)->Open().ok());
  std::multiset<int64_t> golden_ids;
  std::vector<int64_t> golden_ages;
  ASSERT_TRUE(drain(golden_op->get(), &golden_ages, &golden_ids).ok());
  ASSERT_GT(golden_ids.size(), 1000u);

  // Probe the store reads a cold run spends through Open plus one batch of
  // rows, so the fault lands strictly mid-flight at this quantum.
  ASSERT_TRUE(db.pool()->EvictAll().ok());
  uint64_t probe_start = faults->total_reads();
  {
    auto probe = CompilePlan(&db, *plan, &params);
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE((*probe)->Open().ok());
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 3; ++i) {
      auto more = (*probe)->NextBatch(&rows, 1);
      ASSERT_TRUE(more.ok());
      ASSERT_TRUE(*more);
    }
  }
  uint64_t probe_reads = faults->total_reads() - probe_start;

  ASSERT_TRUE(db.pool()->EvictAll().ok());
  FaultProgram p = FaultProgram::Permanent(PageClass::kIndex, 1.0);
  p.activate_after_reads = faults->total_reads() + probe_reads;
  faults->SetProgram(p);

  QueryContext ctx;
  auto op = CompilePlan(&db, *plan, &params, &ctx);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<int64_t> ages;
  std::multiset<int64_t> ids;
  Status st = drain(op->get(), &ages, &ids);
  faults->ClearProgram();
  ASSERT_TRUE(st.ok()) << st;
  auto* retrieve = static_cast<DynamicRetrievalOperator*>(op->get());
  EXPECT_TRUE(retrieve->engine()->degraded());
  EXPECT_TRUE(std::is_sorted(ages.begin(), ages.end()));
  EXPECT_EQ(ids, golden_ids);  // no lost rows, no duplicates mid-batch
  EXPECT_EQ(db.pool()->PinnedPages(), 0u);
  EXPECT_TRUE(db.pool()->CheckInvariants().ok());
}

// ------------------------------------------------------- plans, end to end

// Every root row of a compiled plan, pulled `max_rows` at a time through
// the row adapter.
Result<std::vector<std::vector<Value>>> DrainPlan(RowOperator* op,
                                                  size_t max_rows) {
  DYNOPT_RETURN_IF_ERROR(op->Open());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    DYNOPT_ASSIGN_OR_RETURN(bool more, op->NextBatch(&rows, max_rows));
    if (!more) break;
  }
  return rows;
}

std::multiset<std::string> Canonical(const std::vector<std::vector<Value>>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(RowKey(row, Rid()));
  return out;
}

// The projected values of `rows`, without the RIDs a plan root never shows.
std::vector<std::vector<Value>> Values(std::vector<ResultRow> rows) {
  std::vector<std::vector<Value>> out;
  for (ResultRow& row : rows) out.push_back(std::move(row.values));
  return out;
}

bool SortedOn(const std::vector<std::vector<Value>>& rows, size_t col) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (TotalValueLess(rows[i][col], rows[i - 1][col])) return false;
  }
  return true;
}

TEST(BatchPlanGoldenTest, CompiledPlansMatchNaiveAcrossBatchSizes) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{45}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{120000})))});
  ParamMap params;
  auto spec = [&](std::vector<uint32_t> proj,
                  std::optional<uint32_t> order = std::nullopt) {
    RetrievalSpec s = f.Spec(pred, std::move(proj));
    s.order_by_column = order;
    return s;
  };
  auto naive = [&](const RetrievalSpec& s) {
    return Values(NaiveRows(s, params));
  };
  size_t matches = naive(spec({0})).size();
  ASSERT_GT(matches, 500u);
  int64_t income_sum = 0;
  for (const auto& row : naive(spec({2}))) income_sum += row[0].AsInt64();
  std::vector<std::vector<Value>> cities = naive(spec({3}));
  std::sort(cities.begin(), cities.end(), [](const auto& a, const auto& b) {
    return TotalValueLess(a[0], b[0]);
  });
  cities.erase(std::unique(cities.begin(), cities.end()), cities.end());

  for (size_t bs : kBatchSizes) {
    auto compile = [&](std::unique_ptr<PlanNode> plan) {
      PlanNode* leaf = plan.get();
      while (leaf->child != nullptr) leaf = leaf->child.get();
      leaf->retrieval_options.batch_size = bs;
      InferGoals(plan.get(), OptimizationGoal::kTotalTime);
      auto op = CompilePlan(&f.db, *plan, &params);
      EXPECT_TRUE(op.ok()) << op.status();
      return std::move(*op);
    };
    for (size_t pull : {size_t{1}, kDefaultBatchRows}) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs) +
                   " pull=" + std::to_string(pull));
      auto count = DrainPlan(
          compile(PlanNode::Aggregate(PlanNode::Retrieve(spec({0})),
                                      AggregateKind::kCount))
              .get(),
          pull);
      ASSERT_TRUE(count.ok()) << count.status();
      EXPECT_EQ(*count, (std::vector<std::vector<Value>>{
                            {Value(static_cast<int64_t>(matches))}}));

      auto sum = DrainPlan(
          compile(PlanNode::Aggregate(PlanNode::Retrieve(spec({2})),
                                      AggregateKind::kSum, 0))
              .get(),
          pull);
      ASSERT_TRUE(sum.ok()) << sum.status();
      EXPECT_EQ(*sum, (std::vector<std::vector<Value>>{
                          {Value(static_cast<double>(income_sum))}}));

      auto sorted = DrainPlan(
          compile(PlanNode::Sort(PlanNode::Retrieve(spec({0, 2})), 1)).get(),
          pull);
      ASSERT_TRUE(sorted.ok()) << sorted.status();
      EXPECT_TRUE(SortedOn(*sorted, 1));
      EXPECT_EQ(Canonical(*sorted), Canonical(naive(spec({0, 2}))));

      auto distinct = DrainPlan(
          compile(PlanNode::Distinct(PlanNode::Retrieve(spec({3})))).get(),
          pull);
      ASSERT_TRUE(distinct.ok()) << distinct.status();
      EXPECT_EQ(*distinct, cities);

      // ORDER BY age rides the by_age index; ORDER BY city has no index and
      // takes the leaf's sort fallback.
      for (uint32_t order_col : {uint32_t{1}, uint32_t{3}}) {
        auto ordered = DrainPlan(
            compile(PlanNode::Retrieve(spec({0, 1, 3}, order_col))).get(),
            pull);
        ASSERT_TRUE(ordered.ok()) << ordered.status();
        EXPECT_TRUE(SortedOn(*ordered, order_col == 1 ? 1 : 2))
            << "order_col=" << order_col;
        EXPECT_EQ(Canonical(*ordered), Canonical(naive(spec({0, 1, 3}))));
      }

      auto limited = DrainPlan(
          compile(PlanNode::Limit(PlanNode::Retrieve(spec({0, 1})), 25)).get(),
          pull);
      ASSERT_TRUE(limited.ok()) << limited.status();
      ASSERT_EQ(limited->size(), 25u);
      std::multiset<std::string> all = Canonical(naive(spec({0, 1})));
      std::set<std::string> seen;
      for (const auto& row : *limited) {
        std::string key = RowKey(row, Rid());
        EXPECT_EQ(all.count(key), 1u) << key;
        EXPECT_TRUE(seen.insert(key).second) << "duplicate " << key;
      }
    }
  }
}

// The degraded ORDER BY fallback at every quantum: the ordered Fscan dies
// to an index fault after a few rows, the engine falls back to Tscan, and
// the leaf re-sorts the remainder with SORT's code.
TEST(BatchPlanGoldenTest, MidFlightOrderByFallbackAcrossBatchSizes) {
  auto store = std::make_unique<FaultInjectingPageStore>(
      std::make_unique<MemPageStore>());
  FaultInjectingPageStore* faults = store.get();
  DatabaseOptions dbo;
  dbo.pool_pages = 64;
  Database db(std::move(dbo), std::move(store));
  auto t = BuildFamilies(&db, 20000, 7);
  ASSERT_TRUE(t.ok());
  Table* table = *t;
  ASSERT_TRUE(table->CreateIndex("by_age", {"age"}).ok());
  faults->ClassifyHeapPages(table->heap()->pages());
  faults->FreezeClassification();

  RetrievalSpec spec;
  spec.table = table;
  spec.restriction =
      Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                         Operand::Literal(Value(int64_t{45})));
  spec.projection = {0, 1};
  spec.order_by_column = 1;
  ParamMap params;
  std::multiset<std::string> golden =
      Canonical(Values(NaiveRows(spec, params)));
  ASSERT_GT(golden.size(), 1000u);

  for (size_t bs : kBatchSizes) {
    auto plan = PlanNode::Retrieve(spec);
    plan->retrieval_options.batch_size = bs;
    // Store reads a cold run spends through Open plus three one-row pulls:
    // the fault activates right after them.
    ASSERT_TRUE(db.pool()->EvictAll().ok());
    uint64_t probe_start = faults->total_reads();
    {
      auto probe = CompilePlan(&db, *plan, &params);
      ASSERT_TRUE(probe.ok());
      ASSERT_TRUE((*probe)->Open().ok());
      std::vector<std::vector<Value>> rows;
      while (rows.size() < 3) ASSERT_TRUE(*(*probe)->NextBatch(&rows, 1));
    }
    uint64_t probe_reads = faults->total_reads() - probe_start;
    ASSERT_TRUE(db.pool()->EvictAll().ok());
    FaultProgram p = FaultProgram::Permanent(PageClass::kIndex, 1.0);
    p.activate_after_reads = faults->total_reads() + probe_reads;
    faults->SetProgram(p);

    QueryContext ctx;
    auto op = CompilePlan(&db, *plan, &params, &ctx);
    ASSERT_TRUE(op.ok());
    auto rows = DrainPlan(op->get(), 1);
    faults->ClearProgram();
    ASSERT_TRUE(rows.ok()) << rows.status() << " batch_size=" << bs;
    auto* leaf = static_cast<DynamicRetrievalOperator*>(op->get());
    EXPECT_TRUE(leaf->engine()->degraded()) << "batch_size=" << bs;
    EXPECT_TRUE(SortedOn(*rows, 1)) << "batch_size=" << bs;
    EXPECT_EQ(Canonical(*rows), golden) << "batch_size=" << bs;
    EXPECT_EQ(db.pool()->PinnedPages(), 0u);
  }
}

// EXISTS and LIMIT 1 reach their first root row within the first stepper
// batch of a full-table Tscan: a one-row pull never scans ahead.
TEST(BatchPlanGoldenTest, OneRowPullsStopAfterOneStepperBatch) {
  Families f(5000);  // no index: the leaf runs a full-table Tscan
  MetricsRegistry* m = f.db.metrics();
  ASSERT_NE(m, nullptr);
  RetrievalSpec spec =
      f.Spec(Predicate::Compare(2, CompareOp::kGe,
                                Operand::Literal(Value(int64_t{1000}))),
             {0, 1});
  ParamMap params;
  for (bool exists : {true, false}) {
    for (size_t bs : kBatchSizes) {
      auto leaf = PlanNode::Retrieve(spec);
      leaf->retrieval_options.batch_size = bs;
      auto plan = exists ? PlanNode::Exists(std::move(leaf))
                         : PlanNode::Limit(std::move(leaf), 1);
      InferGoals(plan.get(), OptimizationGoal::kTotalTime);
      auto op = CompilePlan(&f.db, *plan, &params);
      ASSERT_TRUE(op.ok()) << op.status();
      uint64_t batches = m->Value("exec.batches");
      uint64_t screened = m->Value("exec.rows_screened");
      ASSERT_TRUE((*op)->Open().ok());
      std::vector<std::vector<Value>> rows;
      ASSERT_TRUE(*(*op)->NextBatch(&rows, 1));
      ASSERT_EQ(rows.size(), 1u);
      if (exists) {
        EXPECT_EQ(rows[0][0].AsInt64(), 1);
      }
      EXPECT_EQ(m->Value("exec.batches") - batches, 1u)
          << (exists ? "EXISTS" : "LIMIT 1") << " batch_size=" << bs;
      EXPECT_LE(m->Value("exec.rows_screened") - screened, bs)
          << (exists ? "EXISTS" : "LIMIT 1") << " batch_size=" << bs;
    }
  }
}

// ------------------------------------------- operators vs a row reference

// A value from a small domain, so sorts and DISTINCT see many ties: kind 0
// INT64, 1 DOUBLE, 2 STRING, 3 any of the three.
Value RandomValue(Rng& rng, int kind) {
  if (kind == 3) kind = static_cast<int>(rng.NextBounded(3));
  switch (kind) {
    case 0:
      return Value(rng.NextInt(-5, 5));
    case 1:
      return Value(static_cast<double>(rng.NextInt(-5, 5)) / 2);
    default:
      return Value("s" + std::to_string(rng.NextBounded(6)));
  }
}

bool ReferenceRowLess(const std::vector<Value>& a,
                      const std::vector<Value>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (TotalValueLess(a[i], b[i])) return true;
    if (TotalValueLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

// Row-at-a-time fold of SUM/MIN/MAX over column `col` of `rows`.
Result<Value> ReferenceAggregate(const std::vector<std::vector<Value>>& rows,
                                 AggregateKind kind, size_t col) {
  double sum = 0;
  std::optional<Value> best;
  for (const auto& row : rows) {
    if (col >= row.size()) {
      return Status::InvalidArgument("aggregate column beyond row arity");
    }
    const Value& v = row[col];
    if (kind == AggregateKind::kSum) {
      if (v.is_string()) {
        return Status::InvalidArgument("SUM over non-numeric column");
      }
      sum += v.is_int64() ? static_cast<double>(v.AsInt64()) : v.AsDouble();
    } else if (!best.has_value() ||
               (kind == AggregateKind::kMin ? TotalValueLess(v, *best)
                                            : TotalValueLess(*best, v))) {
      best = v;
    }
  }
  if (kind == AggregateKind::kSum) return Value(sum);
  if (!best.has_value()) return Status::NotFound("MIN/MAX over empty input");
  return *best;
}

TEST(BatchOperatorTest, OperatorsMatchRowReference) {
  Rng rng(2024);
  using Rows = std::vector<std::vector<Value>>;
  auto source = [](const Rows& rows) {
    return std::make_unique<VectorSourceOperator>(rows);
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300}, size_t{2500}}) {
    for (int kind = 0; kind < 4; ++kind) {
      // Column 0 has the kind under test, column 1 is always mixed.
      Rows input;
      for (size_t i = 0; i < n; ++i) {
        input.push_back({RandomValue(rng, kind), RandomValue(rng, 3)});
      }
      Rows by_key = input;
      std::stable_sort(by_key.begin(), by_key.end(),
                       [](const auto& a, const auto& b) {
                         return TotalValueLess(a[0], b[0]);
                       });
      Rows distinct = input;
      std::sort(distinct.begin(), distinct.end(), ReferenceRowLess);
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (size_t pull : {size_t{1}, size_t{7}, size_t{1024}}) {
        SCOPED_TRACE("rows=" + std::to_string(n) + " kind=" +
                     std::to_string(kind) + " pull=" + std::to_string(pull));
        SortOperator sort(source(input), 0);
        auto sorted = DrainPlan(&sort, pull);
        ASSERT_TRUE(sorted.ok()) << sorted.status();
        EXPECT_EQ(*sorted, by_key);

        DistinctOperator dedup(source(input));
        auto deduped = DrainPlan(&dedup, pull);
        ASSERT_TRUE(deduped.ok()) << deduped.status();
        EXPECT_EQ(*deduped, distinct);

        AggregateOperator count(source(input), AggregateKind::kCount);
        auto counted = DrainPlan(&count, pull);
        ASSERT_TRUE(counted.ok()) << counted.status();
        EXPECT_EQ(*counted, (Rows{{Value(static_cast<int64_t>(n))}}));

        for (AggregateKind agg :
             {AggregateKind::kSum, AggregateKind::kMin, AggregateKind::kMax}) {
          for (size_t col : {size_t{0}, size_t{2}}) {
            AggregateOperator op(source(input), agg, col);
            auto got = DrainPlan(&op, pull);
            auto want = ReferenceAggregate(input, agg, col);
            ASSERT_EQ(got.ok(), want.ok())
                << "agg=" << static_cast<int>(agg) << " col=" << col;
            if (want.ok()) {
              EXPECT_EQ(*got, (Rows{{*want}}));
            } else {
              EXPECT_EQ(got.status().code(), want.status().code())
                  << got.status() << " vs " << want.status();
            }
          }
        }

        SortOperator beyond(source(input), 2);
        auto sorted_beyond = DrainPlan(&beyond, pull);
        if (n == 0) {
          EXPECT_TRUE(sorted_beyond.ok());
        } else {
          EXPECT_TRUE(sorted_beyond.status().IsInvalidArgument());
        }

        for (uint64_t limit : {uint64_t{0}, uint64_t{1}, uint64_t{5}, n + 3}) {
          LimitOperator op(source(input), limit);
          auto got = DrainPlan(&op, pull);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(*got, Rows(input.begin(),
                               input.begin() + std::min<uint64_t>(limit, n)));
        }

        ExistsOperator exists(source(input));
        auto any = DrainPlan(&exists, pull);
        ASSERT_TRUE(any.ok()) << any.status();
        EXPECT_EQ(*any, (Rows{{Value(static_cast<int64_t>(n > 0 ? 1 : 0))}}));
      }
    }
  }
}

// ---------------------------------------------------------------- EvalBatch

TEST(BatchEvalTest, EvalBatchMatchesRowEvalOnRandomBatches) {
  Rng rng(7);
  // Random 4-column batch: int64, int64, string, double.
  constexpr size_t kRows = 257;
  std::vector<Record> records;
  ColumnVector cols[4];
  for (size_t i = 0; i < kRows; ++i) {
    int64_t a = rng.NextInt(-50, 50);
    int64_t b = rng.NextInt(0, 1000);
    std::string s = "str" + std::to_string(rng.NextBounded(20));
    double d = static_cast<double>(rng.NextInt(-400, 400)) / 8.0;
    records.push_back(Record{Value(a), Value(b), Value(s), Value(d)});
    cols[0].AppendInt64(a);
    cols[1].AppendInt64(b);
    cols[2].AppendString(s);
    cols[3].AppendDouble(d);
  }
  const ColumnVector* col_ptrs[4] = {&cols[0], &cols[1], &cols[2], &cols[3]};
  BatchView view(col_ptrs, 4);

  ParamMap params{{"lo", Value(int64_t{-10})}, {"hi", Value(int64_t{25})}};
  std::vector<PredicateRef> preds;
  preds.push_back(Predicate::True());
  preds.push_back(Predicate::Compare(0, CompareOp::kLt,
                                     Operand::Literal(Value(int64_t{0}))));
  preds.push_back(Predicate::Compare(1, CompareOp::kGe,
                                     Operand::Literal(Value(int64_t{500}))));
  preds.push_back(
      Predicate::Between(0, Operand::HostVar("lo"), Operand::HostVar("hi")));
  preds.push_back(Predicate::Contains(2, "str1"));
  preds.push_back(Predicate::Mod(1, 7, 3));
  preds.push_back(Predicate::Not(Predicate::Mod(0, 2, 0)));
  preds.push_back(Predicate::And(
      {Predicate::Compare(0, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{-20}))),
       Predicate::Or({Predicate::Contains(2, "str1"),
                      Predicate::Mod(1, 3, 0)})}));
  preds.push_back(Predicate::Or(
      {Predicate::And({Predicate::Mod(0, 2, 0), Predicate::Mod(1, 2, 1)}),
       Predicate::Not(Predicate::Between(
           1, Operand::Literal(Value(int64_t{100})),
           Operand::Literal(Value(int64_t{900}))))}));
  // All six compare ops on every column type, against a literal and a
  // host variable; BETWEEN over strings and doubles.
  params.emplace("s", Value(std::string("str12")));
  params.emplace("d", Value(-3.0));
  const std::vector<std::pair<uint32_t, Value>> operands = {
      {0, Value(int64_t{7})},          {1, Value(int64_t{500})},
      {2, Value(std::string("str5"))}, {3, Value(12.5)},
  };
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const auto& [col, value] : operands) {
      preds.push_back(Predicate::Compare(col, op, Operand::Literal(value)));
    }
    preds.push_back(Predicate::Compare(2, op, Operand::HostVar("s")));
    preds.push_back(Predicate::Compare(3, op, Operand::HostVar("d")));
  }
  preds.push_back(
      Predicate::Between(2, Operand::Literal(Value(std::string("str11"))),
                         Operand::Literal(Value(std::string("str3")))));
  preds.push_back(
      Predicate::Between(2, Operand::HostVar("s"),
                         Operand::Literal(Value(std::string("str8")))));
  preds.push_back(Predicate::Between(3, Operand::Literal(Value(-10.25)),
                                     Operand::Literal(Value(20.0))));
  preds.push_back(Predicate::Not(Predicate::Between(
      3, Operand::HostVar("d"), Operand::Literal(Value(40.0)))));

  // Both a full selection and a strided one (mask indexes by position).
  std::vector<uint32_t> full, strided;
  for (uint32_t i = 0; i < kRows; ++i) {
    full.push_back(i);
    if (i % 3 == 0) strided.push_back(i);
  }
  for (const auto& pred : preds) {
    for (const auto* sel : {&full, &strided}) {
      std::vector<uint8_t> mask(sel->size(), 2);  // poison
      ASSERT_TRUE(
          pred->EvalBatch(view, params, sel->data(), sel->size(), mask.data())
              .ok())
          << pred->ShapeString();
      for (size_t i = 0; i < sel->size(); ++i) {
        RowView row(&records[(*sel)[i]]);
        auto want = pred->Eval(row, params);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(mask[i] != 0, *want)
            << pred->ShapeString() << " row " << (*sel)[i];
      }
    }
  }
}

TEST(BatchEvalTest, FilterSelectionCompactsLikeRowEval) {
  Rng rng(11);
  constexpr size_t kRows = 100;
  std::vector<Record> records;
  ColumnVector c0, c1;
  for (size_t i = 0; i < kRows; ++i) {
    int64_t a = rng.NextInt(0, 9);
    int64_t b = rng.NextInt(0, 9);
    records.push_back(Record{Value(a), Value(b)});
    c0.AppendInt64(a);
    c1.AppendInt64(b);
  }
  const ColumnVector* col_ptrs[2] = {&c0, &c1};
  BatchView view(col_ptrs, 2);
  ParamMap params;
  // Top-level AND exercises the conjunct-by-conjunct narrowing path.
  auto pred = Predicate::And(
      {Predicate::Compare(0, CompareOp::kLe,
                          Operand::Literal(Value(int64_t{5}))),
       Predicate::Compare(1, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{4})))});
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; ++i) sel.push_back(i);
  BatchEvalScratch scratch;
  ASSERT_TRUE(FilterSelection(*pred, view, params, &scratch, &sel).ok());
  std::vector<uint32_t> want;
  for (uint32_t i = 0; i < kRows; ++i) {
    RowView row(&records[i]);
    auto keep = pred->Eval(row, params);
    ASSERT_TRUE(keep.ok());
    if (*keep) want.push_back(i);
  }
  EXPECT_EQ(sel, want);
}

// ------------------------------------------------------------- batch metrics

TEST(BatchMetricsTest, ExecBatchTelemetryPopulates) {
  Families f(4000);
  ParamMap params;
  auto pred = Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                                 Operand::Literal(Value(int64_t{49})));
  RetrievalSpec spec = f.Spec(pred, {0, 1});
  MetricsRegistry* m = f.db.metrics();
  ASSERT_NE(m, nullptr);
  uint64_t batches_before = m->Value("exec.batches");
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  auto rows = DrainRids(&engine);
  EXPECT_GT(rows.size(), 0u);

  // One Tscan over 4000 rows at the 1024 quantum: a handful of batches.
  uint64_t batches = m->Value("exec.batches") - batches_before;
  EXPECT_GE(batches, 4u);
  EXPECT_LE(batches, 64u);
  const Histogram* per_batch = m->FindHistogram("exec.rows_per_batch");
  ASSERT_NE(per_batch, nullptr);
  EXPECT_GE(per_batch->count(), batches);
  EXPECT_GT(per_batch->sum(), 3999.0);  // every scanned row is accounted
  const Histogram* density = m->FindHistogram("exec.selection_density");
  ASSERT_NE(density, nullptr);
  EXPECT_GE(density->count(), batches);
  // ~50% selectivity: the density samples average near the middle.
  EXPECT_GT(density->sum() / static_cast<double>(density->count()), 20.0);
  EXPECT_LT(density->sum() / static_cast<double>(density->count()), 80.0);
  // The audited hot loops pre-reserve; steady state sees no regrowth.
  EXPECT_EQ(m->Value("exec.realloc_count"), 0u);
}

// The engine's own fetches by RID (the final stage of the tiny-range
// shortcut and of background-only) charge the exec.* ledger like the
// steppers' fetches do, and rows_delivered counts what reached the caller.
TEST(BatchMetricsTest, EngineFetchesChargeTheExecLedger) {
  Families f(20000);  // enough heap pages that Jscan's list beats a Tscan
  f.Index("by_id", {"id"});
  f.Index("by_age", {"age"});
  MetricsRegistry* m = f.db.metrics();
  ASSERT_NE(m, nullptr);
  ParamMap params;
  struct Case {
    PredicateRef pred;
    Tactic tactic;
  };
  std::vector<Case> cases = {
      {Predicate::Between(0, Operand::Literal(Value(int64_t{100})),
                          Operand::Literal(Value(int64_t{104}))),
       Tactic::kShortcutTiny},
      {Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                          Operand::Literal(Value(int64_t{10}))),
       Tactic::kBackgroundOnly},
  };
  for (const Case& c : cases) {
    RetrievalSpec spec = f.Spec(c.pred, {0, 3});
    DynamicRetrieval engine(&f.db, spec);
    uint64_t fetched = m->Value("exec.records_fetched");
    uint64_t screened = m->Value("exec.rows_screened");
    uint64_t delivered = m->Value("exec.rows_delivered");
    ASSERT_TRUE(engine.Open(params).ok());
    ASSERT_EQ(engine.tactic(), c.tactic);
    auto rows = DrainRids(&engine);
    ASSERT_TRUE(
        engine.events().Contains(TraceEventKind::kStageTransition, "final"));
    // Every RID of the final list is a live row matching the restriction.
    EXPECT_EQ(m->Value("exec.records_fetched") - fetched, rows.size())
        << TacticName(c.tactic);
    EXPECT_GE(m->Value("exec.rows_screened") - screened, rows.size());
    EXPECT_EQ(m->Value("exec.rows_delivered") - delivered,
              engine.rows_delivered())
        << TacticName(c.tactic);
    EXPECT_EQ(engine.rows_delivered(), rows.size());
    EXPECT_GT(rows.size(), 0u);
  }
}

}  // namespace
}  // namespace dynopt
