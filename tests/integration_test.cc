// Cross-module integration tests: the full engine under memory pressure,
// spilled RID lists with bitmap false positives, cache interference (§3c),
// concurrent deletes, and compiled plans end to end.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "families.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

TEST(IntegrationTest, TinyBufferPoolStillCorrect) {
  // Working set far exceeds the pool: every structure faults constantly.
  Database db(DatabaseOptions{.pool_pages = 16});
  auto t = BuildFamilies(&db, 20000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();
  (*t)->CreateIndex("by_income", {"income"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{20})),
                          Operand::Literal(Value(int64_t{40}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{30000})))});
  spec.projection = {0, 1, 2};
  ParamMap params;
  DynamicRetrieval engine(&db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
  EXPECT_GT(db.meter().physical_reads, 100u);  // it really did fault
}

TEST(IntegrationTest, SpilledJscanListsWithBitmapFalsePositives) {
  // Tiny RID-list memory + tiny bitmap: every list spills and the filter
  // is maximally fuzzy. Results must still be exact because the final
  // stage re-evaluates the full restriction on fetched records.
  Database db(DatabaseOptions{.pool_pages = 512});
  auto t = BuildFamilies(&db, 20000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();
  (*t)->CreateIndex("by_income", {"income"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{50}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{60000})))});
  spec.projection = {0};
  RetrievalOptions opt;
  opt.jscan.rid_list.inline_capacity = 2;
  opt.jscan.rid_list.memory_capacity = 16;
  opt.jscan.rid_list.bitmap_bits = 256;  // heavy false-positive rate
  ParamMap params;
  DynamicRetrieval engine(&db, spec, opt);
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
}

TEST(IntegrationTest, DeletedRowsSkippedByFinalStage) {
  Database db;
  auto t = BuildFamilies(&db, 5000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                                        Operand::Literal(Value(int64_t{12})));
  spec.projection = {0, 1};
  ParamMap params;

  DynamicRetrieval engine(&db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  auto before = DrainRids(&engine);
  ASSERT_GT(before.size(), 10u);

  // Delete half of the matching rows (index entries removed with them).
  size_t removed = 0;
  for (auto it = before.begin(); it != before.end(); ++it) {
    if (removed % 2 == 0) {
      ASSERT_TRUE((*t)->Delete(Rid::FromU64(*it)).ok());
    }
    removed++;
  }
  ASSERT_TRUE(engine.Open(params).ok());
  auto after = DrainRids(&engine);
  EXPECT_EQ(after, NaiveRids(spec, params));
  EXPECT_LT(after.size(), before.size());
}

TEST(IntegrationTest, CacheInterferenceRaisesAndSpreadsCost) {
  // §3c: "the pattern of caching the disk pages is influenced by many
  // asynchronous processes totally unrelated to a given retrieval". The
  // same query costs little on a warm cache and much more after
  // interference; the run-cost distribution under random interference is
  // right-skewed (mean above median) — feeding the L-shape the
  // competition model assumes.
  Database db(DatabaseOptions{.pool_pages = 2048});
  auto t = BuildFamilies(&db, 30000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_income", {"income"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction =
      Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                         Operand::Literal(Value(int64_t{5000})));
  spec.projection = {0, 2};
  ParamMap params;
  // Row-at-a-time quantum: the skew being measured is per-row random
  // page access; batched page-clustered fetches flatten it by design.
  RetrievalOptions opt;
  opt.batch_size = 1;
  DynamicRetrieval engine(&db, spec, opt);

  auto run_cost = [&]() {
    CostMeter before = db.meter();
    EXPECT_TRUE(engine.Open(params).ok());
    DrainRids(&engine);
    return (db.meter() - before).Cost(db.cost_weights());
  };

  run_cost();  // prime the cache
  double warm = run_cost();

  Rng rng(4);
  std::vector<double> interfered;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.pool()->ScrambleCache(rng, rng.NextDouble()).ok());
    interfered.push_back(run_cost());
  }
  std::sort(interfered.begin(), interfered.end());
  double median = interfered[interfered.size() / 2];
  double mean = 0;
  for (double c : interfered) mean += c;
  mean /= interfered.size();

  EXPECT_GT(interfered.back(), warm * 2)
      << "full interference should at least double the warm cost";
  EXPECT_GE(mean, median) << "interference cost should skew right";
  EXPECT_LE(interfered.front(), mean);
}

TEST(IntegrationTest, CompiledAggregatePlanOverRetrieval) {
  Database db;
  auto t = BuildFamilies(&db, 8000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();

  // select count(*) from FAMILIES where age between 30 and 40
  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::Between(1, Operand::Literal(Value(int64_t{30})),
                                        Operand::Literal(Value(int64_t{40})));
  spec.projection = {0};
  auto plan =
      PlanNode::Aggregate(PlanNode::Retrieve(spec), AggregateKind::kCount);
  InferGoals(plan.get(), OptimizationGoal::kFastFirst);
  // Aggregate controls the retrieval: total-time regardless of default.
  EXPECT_EQ(plan->child->spec.goal, OptimizationGoal::kTotalTime);

  ParamMap params;
  auto op = CompilePlan(&db, *plan, &params);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  ASSERT_TRUE(*(*op)->NextBatch(&rows, 1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(static_cast<size_t>(rows[0][0].AsInt64()),
            NaiveRids(spec, params).size());
}

TEST(IntegrationTest, ExistsPlanStopsEarly) {
  Database db;
  auto t = BuildFamilies(&db, 20000, 42, /*payload_bytes=*/200);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_income", {"income"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction =
      Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                         Operand::Literal(Value(int64_t{100000})));
  spec.projection = {0};
  auto plan = PlanNode::Exists(PlanNode::Retrieve(spec));
  InferGoals(plan.get(), OptimizationGoal::kTotalTime);
  EXPECT_EQ(plan->child->spec.goal, OptimizationGoal::kFastFirst);

  ParamMap params;
  auto op = CompilePlan(&db, *plan, &params);
  ASSERT_TRUE(op.ok());
  CostMeter before = db.meter();
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  ASSERT_TRUE(*(*op)->NextBatch(&rows, 1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  double cost = (db.meter() - before).Cost(db.cost_weights());
  // 50% of records match: the probe must cost a sliver of a full scan.
  double tscan = EstimateTscanCost(spec, db.cost_weights());
  EXPECT_LT(cost * 20, tscan);
}

TEST(IntegrationTest, StaticAndDynamicAgreeOnResultsAcrossSweep) {
  Database db;
  auto t = BuildFamilies(&db, 10000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction =
      Predicate::Compare(1, CompareOp::kGe, Operand::HostVar("A1"));
  spec.projection = {0, 1};

  ParamMap compile_time;
  auto choice = ChooseStaticPlan(&db, spec, compile_time);
  ASSERT_TRUE(choice.ok());
  StaticRetrieval frozen(&db, spec, *choice);
  DynamicRetrieval dynamic(&db, spec);

  for (int64_t a1 : {0, 37, 80, 99, 150}) {
    ParamMap params{{"A1", Value(a1)}};
    ASSERT_TRUE(dynamic.Open(params).ok());
    auto dyn = DrainRids(&dynamic);
    ASSERT_TRUE(frozen.Open(params).ok());
    std::multiset<uint64_t> sta;
    RowBatch batch;
    for (;;) {
      auto more = frozen.NextBatch(&batch);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      for (uint32_t r = 0; r < batch.num_rows(); ++r) {
        sta.insert(batch.rid(r).ToU64());
      }
    }
    EXPECT_EQ(dyn, sta) << "A1=" << a1;
  }
}

TEST(IntegrationTest, RerunAfterIndexCreationChangesTactic) {
  Database db;
  auto t = BuildFamilies(&db, 10000, 42, /*payload_bytes=*/200);
  ASSERT_TRUE(t.ok());

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction =
      Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                         Operand::Literal(Value(int64_t{2000})));
  spec.projection = {0, 2};
  ParamMap params;

  DynamicRetrieval engine(&db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kStaticTscan);
  auto without_index = DrainRids(&engine);

  (*t)->CreateIndex("by_income", {"income"}).ok();
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_NE(engine.tactic(), Tactic::kStaticTscan);
  EXPECT_EQ(DrainRids(&engine), without_index);
}

}  // namespace
}  // namespace dynopt
