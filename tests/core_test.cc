#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/access_path.h"
#include "core/jscan.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "families.h"
#include "util/rng.h"

namespace dynopt {
namespace {

PredicateRef AgeGe(Operand op) {
  return Predicate::Compare(1, CompareOp::kGe, std::move(op));
}

// ---------------------------------------------------------- access paths

TEST(AccessPathTest, ClassifiesIndexes) {
  Families f(2000);
  f.Index("by_age", {"age"});
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_city", {"city"});

  RetrievalSpec spec = f.Spec(AgeBetween(10, 20), {1, 2});
  ParamMap params;
  auto a = AnalyzeAccessPaths(spec, params);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_EQ(a->indexes.size(), 3u);
  EXPECT_TRUE(a->indexes[0].has_restriction);       // by_age
  EXPECT_FALSE(a->indexes[0].self_sufficient);      // lacks income
  EXPECT_TRUE(a->indexes[1].self_sufficient);       // (age, income)
  EXPECT_FALSE(a->indexes[2].has_restriction);      // by_city
  EXPECT_EQ(a->best_self_sufficient, 1);
  EXPECT_FALSE(a->empty_shortcut);
}

TEST(AccessPathTest, EmptyShortcutFromContradiction) {
  Families f(500);
  f.Index("by_age", {"age"});
  auto pred = Predicate::And({AgeGe(Operand::Literal(Value(int64_t{50}))),
                              Predicate::Compare(
                                  1, CompareOp::kLt,
                                  Operand::Literal(Value(int64_t{10})))});
  RetrievalSpec spec = f.Spec(pred, {0});
  ParamMap params;
  auto a = AnalyzeAccessPaths(spec, params);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->empty_shortcut);
}

TEST(AccessPathTest, OrderNeededDetection) {
  Families f(500);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(Predicate::True(), {1});
  spec.order_by_column = 1;  // age
  ParamMap params;
  auto a = AnalyzeAccessPaths(spec, params);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->order_needed, 0);
  EXPECT_TRUE(a->indexes[0].order_needed);
  EXPECT_FALSE(a->indexes[1].order_needed);
}

TEST(AccessPathTest, JscanOrderAscendingByEstimate) {
  Families f(5000);
  f.Index("by_age", {"age"});     // restriction: 50% of rows
  f.Index("by_income", {"income"});  // restriction: ~1% of rows
  auto pred = Predicate::And(
      {AgeGe(Operand::Literal(Value(int64_t{50}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{2000})))});
  RetrievalSpec spec = f.Spec(pred, {0});
  ParamMap params;
  auto a = AnalyzeAccessPaths(spec, params);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->jscan_order.size(), 2u);
  EXPECT_EQ(a->indexes[a->jscan_order[0]].index->name(), "by_income");
  EXPECT_EQ(a->indexes[a->jscan_order[1]].index->name(), "by_age");
}

// ------------------------------------------------------ tactic selection

TEST(TacticTest, NoIndexesMeansStaticTscan) {
  Families f(500);
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 20), {0, 1}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kStaticTscan);
  EXPECT_EQ(DrainRids(&engine),
            NaiveRids(f.Spec(AgeBetween(10, 20), {0, 1}), params));
}

TEST(TacticTest, EmptyRangeShortcut) {
  Families f(500);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db,
                          f.Spec(AgeGe(Operand::Literal(Value(int64_t{100}))),
                                 {0}));
  ParamMap params;
  CostMeter before = f.db.meter();
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kShortcutEmpty);
  RowBatch batch;
  auto more = engine.NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  // The whole run costs a handful of index-page reads (OLTP shortcut).
  EXPECT_LT((f.db.meter() - before).logical_reads, 10u);
}

TEST(TacticTest, TinyRangeShortcut) {
  Families f(5000);
  f.Index("by_id", {"id"});
  auto pred = Predicate::Compare(0, CompareOp::kEq,
                                 Operand::Literal(Value(int64_t{777})));
  DynamicRetrieval engine(&f.db, f.Spec(pred, {0, 1}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kShortcutTiny);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(TacticTest, TotalTimeWithFetchNeededIndexIsBackgroundOnly) {
  Families f(5000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(&f.db, f.Spec(AgeBetween(10, 15), {0, 3}));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
  EXPECT_EQ(DrainRids(&engine),
            NaiveRids(f.Spec(AgeBetween(10, 15), {0, 3}), params));
}

TEST(TacticTest, FastFirstGoalUsesFastFirstTactic) {
  Families f(5000);
  f.Index("by_age", {"age"});
  DynamicRetrieval engine(
      &f.db,
      f.Spec(AgeBetween(10, 15), {0, 3}, OptimizationGoal::kFastFirst));
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kFastFirst);
  EXPECT_EQ(DrainRids(&engine),
            NaiveRids(f.Spec(AgeBetween(10, 15), {0, 3}), params));
}

TEST(TacticTest, OrderedRequestUsesSortedTactic) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {AgeBetween(10, 60),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{50000})))});
  RetrievalSpec spec = f.Spec(pred, {0, 1, 2}, OptimizationGoal::kFastFirst);
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kSorted);
  EXPECT_TRUE(engine.delivers_order());

  // Rows must come out age-ascending and match the naive set.
  std::multiset<uint64_t> rids;
  RowBatch batch;
  int64_t last_age = -1;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      int64_t age = batch.col(1).ValueAt(r).AsInt64();
      EXPECT_GE(age, last_age);
      last_age = age;
      rids.insert(batch.rid(r).ToU64());
    }
  }
  EXPECT_EQ(rids, NaiveRids(spec, params));
}

TEST(TacticTest, CoveringPlusFetchNeededUsesIndexOnly) {
  Families f(5000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {AgeBetween(20, 60),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{10000})))});
  RetrievalSpec spec = f.Spec(pred, {1, 2});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kIndexOnly);
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
}

TEST(TacticTest, CoveringIndexAloneIsStaticSscan) {
  Families f(2000);
  f.Index("by_age_income", {"age", "income"});
  auto pred = AgeBetween(10, 90);  // wide: not tiny
  RetrievalSpec spec = f.Spec(pred, {1, 2});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kStaticSscan);
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
}

// ------------------------------------------------------- verdict vocabulary

TEST(VerdictTest, NameIsTheEventSlug) {
  const std::pair<Verdict, std::string_view> kSlugs[] = {
      {Verdict::kBrownoutPinned, "brownout-pinned"},
      {Verdict::kNoBackground, "no-background"},
      {Verdict::kIoFaultFallback, "io-fault-fallback"},
      {Verdict::kForegroundFinished, "foreground-finished"},
      {Verdict::kFgrBufferOverflow, "fgr-buffer-overflow"},
      {Verdict::kFgrCostLimit, "fgr-cost-limit"},
      {Verdict::kJscanComplete, "jscan-complete"},
      {Verdict::kJscanRecommendsTscan, "jscan-recommends-tscan"},
      {Verdict::kFilterInstalled, "filter-installed"},
      {Verdict::kNoFilter, "no-filter"},
      {Verdict::kJscanWon, "jscan-won"},
      {Verdict::kSscanRetained, "sscan-retained"},
  };
  for (const auto& [verdict, slug] : kSlugs) {
    EXPECT_EQ(VerdictName(verdict), slug);
  }
}

// Every (verdict, winner) pair the engine emits, under each tactic that
// emits it: the strategy that delivers next, and the cost loser_cost()
// counts as sunk into the competitor that lost.
TEST(VerdictTest, WinnerAndLoserCostPerPair) {
  struct Pair {
    Verdict verdict;
    Tactic tactic;
    std::string_view winner;
  };
  const Pair kPairs[] = {
      {Verdict::kBrownoutPinned, Tactic::kSorted, "fscan"},
      {Verdict::kBrownoutPinned, Tactic::kStaticSscan, "sscan"},
      {Verdict::kBrownoutPinned, Tactic::kStaticTscan, "tscan"},
      {Verdict::kNoBackground, Tactic::kSorted, "fscan"},
      {Verdict::kForegroundFinished, Tactic::kSorted, "fscan"},
      {Verdict::kForegroundFinished, Tactic::kIndexOnly, "sscan"},
      {Verdict::kFgrBufferOverflow, Tactic::kFastFirst, "jscan"},
      {Verdict::kFgrBufferOverflow, Tactic::kIndexOnly, "sscan"},
      {Verdict::kFgrCostLimit, Tactic::kFastFirst, "jscan"},
      {Verdict::kJscanComplete, Tactic::kBackgroundOnly, "jscan"},
      {Verdict::kJscanComplete, Tactic::kFastFirst, "jscan"},
      {Verdict::kJscanRecommendsTscan, Tactic::kBackgroundOnly, "tscan"},
      {Verdict::kJscanRecommendsTscan, Tactic::kFastFirst, "tscan"},
      {Verdict::kJscanRecommendsTscan, Tactic::kIndexOnly, "sscan"},
      {Verdict::kFilterInstalled, Tactic::kSorted, "fscan+filter"},
      {Verdict::kNoFilter, Tactic::kSorted, "fscan"},
      {Verdict::kJscanWon, Tactic::kIndexOnly, "jscan"},
      {Verdict::kSscanRetained, Tactic::kIndexOnly, "sscan"},
  };
  std::vector<Pair> pairs(std::begin(kPairs), std::end(kPairs));
  // A fault can hand any tactic over to the Tscan.
  for (Tactic t : {Tactic::kShortcutTiny, Tactic::kStaticTscan,
                   Tactic::kStaticSscan, Tactic::kBackgroundOnly,
                   Tactic::kFastFirst, Tactic::kSorted, Tactic::kIndexOnly}) {
    pairs.push_back({Verdict::kIoFaultFallback, t, "tscan"});
  }
  for (const Pair& p : pairs) {
    CompetitionSample sample;
    sample.tactic = p.tactic;
    sample.verdict = p.verdict;
    sample.foreground_cost = 3;
    sample.background_cost = 5;
    SCOPED_TRACE(std::string(VerdictName(p.verdict)) + " under " +
                 std::string(TacticName(p.tactic)));
    EXPECT_EQ(sample.winner(), p.winner);
    double loser = p.winner == "fscan+filter" ? 0   // work converted
                   : p.winner == "tscan"      ? 8   // both competitors
                   : p.winner == "jscan"      ? 3   // the foreground
                                              : 5;  // the background
    EXPECT_EQ(sample.loser_cost(), loser);
  }
}

// --------------------------------------------- the paper's §4 example

TEST(HostVariableTest, DynamicEngineAdaptsPerRun) {
  // select * from FAMILIES where AGE >= :A1 — :A1 = 0 delivers everything
  // (sequential wins), :A1 = 95 delivers little (index wins), :A1 = 200
  // delivers nothing (the empty shortcut wins). One engine, three runs.
  Families f(8000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec = f.Spec(AgeGe(Operand::HostVar("A1")), {0, 1, 2, 3});
  DynamicRetrieval engine(&f.db, spec);

  // Run 1: A1 = 0 — everything qualifies; Jscan must conclude Tscan.
  ParamMap run1{{"A1", Value(int64_t{0})}};
  ASSERT_TRUE(engine.Open(run1).ok());
  auto rids1 = DrainRids(&engine);
  EXPECT_EQ(rids1.size(), 8000u);
  EXPECT_TRUE(
      engine.events().Contains(TraceEventKind::kTacticChosen, "static-tscan") ||
      SawVerdict(engine, Verdict::kJscanRecommendsTscan))
      << "wide range should end in a table scan";
  double cost1 = engine.CostSinceOpen().Cost(f.db.cost_weights());

  // Run 2: A1 = 95 — ~5% qualify; the index path must be taken.
  ParamMap run2{{"A1", Value(int64_t{95})}};
  ASSERT_TRUE(engine.Open(run2).ok());
  auto rids2 = DrainRids(&engine);
  EXPECT_EQ(rids2, NaiveRids(spec, run2));
  EXPECT_GT(rids2.size(), 100u);
  EXPECT_LT(rids2.size(), 1000u);

  // Run 3: A1 = 200 — nothing qualifies: immediate end of data.
  ParamMap run3{{"A1", Value(int64_t{200})}};
  ASSERT_TRUE(engine.Open(run3).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kShortcutEmpty);
  EXPECT_TRUE(DrainRids(&engine).empty());
  double cost3 = engine.CostSinceOpen().Cost(f.db.cost_weights());
  EXPECT_LT(cost3 * 50, cost1) << "empty run must be orders cheaper";
}

// ----------------------------------------------------------------- Jscan

struct JscanFixture {
  Families f;
  PredicateRef pred;
  RetrievalSpec spec;
  ParamMap params;
  AccessPathAnalysis analysis;

  JscanFixture(int n, PredicateRef p, std::vector<std::string> index_cols)
      : f(n) {
    for (size_t i = 0; i < index_cols.size(); ++i) {
      f.Index("idx" + std::to_string(i), {index_cols[i]});
    }
    pred = std::move(p);
    spec = f.Spec(pred, {0});
    auto a = AnalyzeAccessPaths(spec, params);
    EXPECT_TRUE(a.ok());
    analysis = std::move(*a);
  }

  std::vector<const IndexClassification*> Candidates() {
    std::vector<const IndexClassification*> out;
    for (size_t pos : analysis.jscan_order) {
      out.push_back(&analysis.indexes[pos]);
    }
    return out;
  }
};

TEST(JscanTest, IntersectsTwoIndexes) {
  // income < 4000 is ~2% and age <= 3 is ~4%: their intersection (~0.08%)
  // is far below one-RID-per-page density, so completing the second scan
  // decisively beats fetching the first list alone.
  auto pred = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{3}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{4000})))});
  JscanFixture jf(30000, pred, {"age", "income"});
  Jscan jscan(&jf.f.db, jf.spec, jf.params, jf.Candidates(), Jscan::Options());
  TraceLog log;
  jscan.set_trace(&log);
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  ASSERT_EQ(jscan.phase(), Jscan::Phase::kComplete);

  // The final list must contain every truly-matching RID (it may contain
  // extras only if a bitmap filter was involved).
  auto naive = NaiveRids(jf.spec, jf.params);
  std::set<uint64_t> final_set;
  for (const Rid& r : jscan.final_list()->ToSortedVector()) {
    final_set.insert(r.ToU64());
  }
  for (uint64_t r : naive) {
    EXPECT_TRUE(final_set.count(r) > 0) << "missing rid " << r;
  }
  EXPECT_GE(final_set.size(), naive.size());
  // And it is a real intersection: far smaller than either range alone
  // (~600 and ~1200 entries respectively).
  EXPECT_LT(final_set.size(), 100u);
  // Both indexes contributed a completed list.
  int completed = 0;
  for (const TraceEvent& e : log.events()) {
    if (e.kind == TraceEventKind::kJscanIndexOutcome &&
        e.detail == "completed") {
      completed++;
    }
  }
  EXPECT_EQ(completed, 2);
}

TEST(JscanTest, UnproductiveWideIndexGetsSkippedOrDiscarded) {
  // income < 1000 is ~0.5%; age >= 10 is 90% — the age index cannot pay
  // off and must not be scanned to completion.
  auto pred = Predicate::And(
      {AgeGe(Operand::Literal(Value(int64_t{10}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{1000})))});
  JscanFixture jf(8000, pred, {"age", "income"});
  Jscan jscan(&jf.f.db, jf.spec, jf.params, jf.Candidates(), Jscan::Options());
  TraceLog log;
  jscan.set_trace(&log);
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  ASSERT_EQ(jscan.phase(), Jscan::Phase::kComplete);
  bool age_unproductive = false;
  for (const TraceEvent& e : log.events()) {
    if (e.kind == TraceEventKind::kJscanIndexOutcome && e.subject == "idx0" &&
        e.detail != "completed") {
      age_unproductive = true;
      // If it was started at all, it must have stopped early.
      EXPECT_LT(e.a, 7000.0);
    }
  }
  EXPECT_TRUE(age_unproductive);
}

TEST(JscanTest, AllWideIndexesRecommendTscan) {
  auto pred = AgeGe(Operand::Literal(Value(int64_t{1})));  // ~99%
  JscanFixture jf(8000, pred, {"age"});
  Jscan jscan(&jf.f.db, jf.spec, jf.params, jf.Candidates(), Jscan::Options());
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  EXPECT_EQ(jscan.phase(), Jscan::Phase::kTscanRecommended);
  EXPECT_EQ(jscan.final_list(), nullptr);
}

TEST(JscanTest, StaticThresholdBaselineNeverAborts) {
  // Same workload as the discard test, but [MoHa90]-style: scans it ever
  // starts run to completion.
  auto pred = Predicate::And(
      {AgeGe(Operand::Literal(Value(int64_t{10}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{1000})))});
  JscanFixture jf(8000, pred, {"age", "income"});
  Jscan::Options opt;
  opt.dynamic_thresholds = false;
  Jscan jscan(&jf.f.db, jf.spec, jf.params, jf.Candidates(), opt);
  TraceLog log;
  jscan.set_trace(&log);
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  ASSERT_GT(log.CountKind(TraceEventKind::kJscanIndexOutcome), 0u);
  for (const TraceEvent& e : log.events()) {
    if (e.kind != TraceEventKind::kJscanIndexOutcome) continue;
    EXPECT_NE(e.detail, "discarded")
        << e.subject << " was aborted mid-scan in static mode";
  }
}

TEST(JscanTest, MisorderedCandidatesGetReordered) {
  // Feed candidates in deliberately wrong order (wide index first): the
  // adjacent simultaneous race must let the narrow index win.
  auto pred = Predicate::And(
      {AgeBetween(0, 60),  // ~60%
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{4000})))});  // ~2%
  JscanFixture jf(8000, pred, {"age", "income"});
  auto cands = jf.Candidates();
  ASSERT_EQ(cands.size(), 2u);
  // jscan_order put income first; flip it.
  std::swap(cands[0], cands[1]);
  Jscan::Options opt;
  opt.switch_threshold = 10.0;  // suppress discards; isolate the race
  opt.scan_cost_limit_fraction = 100.0;
  Jscan jscan(&jf.f.db, jf.spec, jf.params, cands, opt);
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  ASSERT_EQ(jscan.phase(), Jscan::Phase::kComplete);
  EXPECT_TRUE(jscan.reordered());
  ASSERT_FALSE(jscan.completed_order().empty());
  EXPECT_EQ(jscan.completed_order()[0], "idx1");  // income finished first
}

TEST(JscanTest, BorrowedRidsComeFromTheLiveList) {
  auto pred = AgeBetween(10, 15);
  JscanFixture jf(8000, pred, {"age"});
  // Entry-at-a-time quantum: borrowing must observe the list *while* it
  // grows, before any batch-boundary competition verdict retires it.
  Jscan jscan(&jf.f.db, jf.spec, jf.params, jf.Candidates(), Jscan::Options());
  std::set<uint64_t> borrowed;
  for (int i = 0; i < 100000 && jscan.phase() == Jscan::Phase::kScanning;
       ++i) {
    auto more = jscan.Step(1);
    ASSERT_TRUE(more.ok());
    auto rid = jscan.BorrowNextRid();
    if (rid.has_value()) borrowed.insert(rid->ToU64());
    if (!*more) break;
  }
  EXPECT_GT(borrowed.size(), 0u);
  auto naive = NaiveRids(jf.spec, jf.params);
  std::set<uint64_t> naive_set(naive.begin(), naive.end());
  for (uint64_t b : borrowed) {
    EXPECT_TRUE(naive_set.count(b)) << "borrowed rid outside the range";
  }
}

// ----------------------------------------------------- static optimizer

TEST(StaticOptimizerTest, PicksIndexForSelectiveLiteral) {
  Families f(8000);
  f.Index("by_income", {"income"});
  // income < 500 is ~20 rows: cheap enough to beat Tscan even under the
  // static model's per-tuple random-fetch costing.
  RetrievalSpec spec = f.Spec(
      Predicate::Compare(2, CompareOp::kLt,
                         Operand::Literal(Value(int64_t{500}))),
      {0, 1});
  ParamMap none;
  auto choice = ChooseStaticPlan(&f.db, spec, none);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->kind, StaticPlanChoice::Kind::kFscan);
  EXPECT_FALSE(choice->used_magic_selectivity);

  StaticRetrieval exec(&f.db, spec, *choice);
  ASSERT_TRUE(exec.Open(none).ok());
  std::multiset<uint64_t> rids;
  RowBatch batch;
  for (;;) {
    auto more = exec.NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      rids.insert(batch.rid(r).ToU64());
    }
  }
  EXPECT_EQ(rids, NaiveRids(spec, none));
}

TEST(StaticOptimizerTest, PicksTscanForWideLiteral) {
  Families f(8000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec = f.Spec(AgeGe(Operand::Literal(Value(int64_t{1}))),
                              {0, 1});
  ParamMap none;
  auto choice = ChooseStaticPlan(&f.db, spec, none);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->kind, StaticPlanChoice::Kind::kTscan);
}

TEST(StaticOptimizerTest, HostVariableForcesMagicGuess) {
  Families f(8000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec = f.Spec(AgeGe(Operand::HostVar("A1")), {0, 1});
  ParamMap none;  // compile time: A1 unknown
  auto choice = ChooseStaticPlan(&f.db, spec, none);
  ASSERT_TRUE(choice.ok());
  EXPECT_TRUE(choice->used_magic_selectivity);
  // System R's 1/3 range-selectivity guess makes the index look too
  // expensive: the frozen plan is a table scan regardless of :A1.
  EXPECT_EQ(choice->kind, StaticPlanChoice::Kind::kTscan);
  // Whatever it picked, it is frozen: both runs use the same plan kind.
  StaticRetrieval exec(&f.db, spec, *choice);
  for (int64_t a1 : {0, 95}) {
    ParamMap run{{"A1", Value(a1)}};
    ASSERT_TRUE(exec.Open(run).ok());
    std::multiset<uint64_t> rids;
    RowBatch batch;
    for (;;) {
      auto more = exec.NextBatch(&batch);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      for (uint32_t r = 0; r < batch.num_rows(); ++r) {
        rids.insert(batch.rid(r).ToU64());
      }
    }
    EXPECT_EQ(rids, NaiveRids(spec, run)) << "A1=" << a1;
  }
}

TEST(StaticOptimizerTest, SscanWhenIndexCovers) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  RetrievalSpec spec = f.Spec(AgeBetween(10, 12), {1, 2});
  ParamMap none;
  auto choice = ChooseStaticPlan(&f.db, spec, none);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->kind, StaticPlanChoice::Kind::kSscan);
}

// -------------------------------------------------------- goal inference

TEST(GoalInferenceTest, PaperExampleChain) {
  // The paper's example: LIMIT controls C (fast-first), DISTINCT controls
  // B (total-time), explicit TOTAL TIME for A.
  Families f(100);
  f.Index("by_age", {"age"});

  // "limit to 2 rows" over a retrieval.
  auto c = PlanNode::Limit(
      PlanNode::Retrieve(f.Spec(Predicate::True(), {0})), 2);
  InferGoals(c.get(), OptimizationGoal::kTotalTime);
  EXPECT_EQ(c->child->spec.goal, OptimizationGoal::kFastFirst);

  // "select distinct" over a retrieval.
  auto b = PlanNode::Distinct(PlanNode::Retrieve(f.Spec(Predicate::True(),
                                                        {1})));
  InferGoals(b.get(), OptimizationGoal::kFastFirst);
  EXPECT_EQ(b->child->spec.goal, OptimizationGoal::kTotalTime);

  // Explicit user request survives inference.
  RetrievalSpec explicit_spec = f.Spec(Predicate::True(), {0});
  explicit_spec.goal = OptimizationGoal::kFastFirst;
  explicit_spec.goal_is_explicit = true;
  auto a = PlanNode::Aggregate(PlanNode::Retrieve(explicit_spec),
                               AggregateKind::kCount);
  InferGoals(a.get(), OptimizationGoal::kTotalTime);
  EXPECT_EQ(a->child->spec.goal, OptimizationGoal::kFastFirst);
}

TEST(GoalInferenceTest, NearestControllerWins) {
  Families f(100);
  // SORT over LIMIT over retrieve: LIMIT is nearer → fast-first.
  auto plan = PlanNode::Sort(
      PlanNode::Limit(PlanNode::Retrieve(f.Spec(Predicate::True(), {0})), 5),
      0);
  InferGoals(plan.get(), OptimizationGoal::kTotalTime);
  EXPECT_EQ(plan->child->child->spec.goal, OptimizationGoal::kFastFirst);

  // LIMIT over SORT over retrieve: SORT is nearer → total-time (a sort
  // must consume everything no matter the limit above it).
  auto plan2 = PlanNode::Limit(
      PlanNode::Sort(PlanNode::Retrieve(f.Spec(Predicate::True(), {0})), 0),
      5);
  InferGoals(plan2.get(), OptimizationGoal::kFastFirst);
  EXPECT_EQ(plan2->child->child->spec.goal, OptimizationGoal::kTotalTime);

  // EXISTS → fast-first.
  auto plan3 =
      PlanNode::Exists(PlanNode::Retrieve(f.Spec(Predicate::True(), {0})));
  InferGoals(plan3.get(), OptimizationGoal::kTotalTime);
  EXPECT_EQ(plan3->child->spec.goal, OptimizationGoal::kFastFirst);
}

TEST(PlanCompileTest, EndToEndLimitQuery) {
  Families f(3000);
  f.Index("by_age", {"age"});
  ParamMap params;
  auto plan = PlanNode::Limit(
      PlanNode::Retrieve(f.Spec(AgeBetween(20, 40), {0, 1})), 7);
  InferGoals(plan.get(), OptimizationGoal::kTotalTime);
  auto op = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    auto more = (*op)->NextBatch(&rows, 1);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  for (const auto& row : rows) {
    EXPECT_GE(row[1].AsInt64(), 20);
    EXPECT_LE(row[1].AsInt64(), 40);
  }
  EXPECT_EQ(rows.size(), 7u);
}

TEST(PlanCompileTest, OrderBySortFallbackWithoutOrderIndex) {
  Families f(2000);
  f.Index("by_income", {"income"});
  ParamMap params;
  RetrievalSpec spec = f.Spec(
      Predicate::Compare(2, CompareOp::kLt,
                         Operand::Literal(Value(int64_t{20000}))),
      {1, 2});
  spec.order_by_column = 1;  // age — no index on age
  auto plan = PlanNode::Retrieve(spec);
  auto op = CompilePlan(&f.db, *plan, &params);
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE((*op)->Open().ok());
  std::vector<std::vector<Value>> rows;
  for (;;) {
    auto more = (*op)->NextBatch(&rows);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  int64_t last = -1;
  for (const auto& row : rows) {
    EXPECT_GE(row[0].AsInt64(), last);
    last = row[0].AsInt64();
  }
  EXPECT_GT(rows.size(), 0u);
}

// ----------------------------------------- foreground/background switches

TEST(RaceTest, FastFirstBufferOverflowFallsBackToBackground) {
  Families f(8000);
  f.Index("by_age", {"age"});
  RetrievalOptions opt;
  opt.fgr_buffer_capacity = 8;   // force the overflow quickly
  opt.fgr_bgr_cost_ratio = 0.0;  // starve the background: fgr races ahead
  opt.batch_size = 1;  // row-at-a-time: the race must outlive the borrows
  RetrievalSpec spec =
      f.Spec(AgeBetween(10, 15), {0, 1}, OptimizationGoal::kFastFirst);
  DynamicRetrieval engine(&f.db, spec, opt);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(SawVerdict(engine, Verdict::kFgrBufferOverflow));
}

TEST(RaceTest, IndexOnlySurvivesJscanTermination) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {AgeBetween(5, 95),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{190000})))});
  RetrievalOptions opt;
  opt.fgr_buffer_capacity = 16;
  RetrievalSpec spec = f.Spec(pred, {1, 2});
  DynamicRetrieval engine(&f.db, spec, opt);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
}

TEST(RaceTest, SortedTacticInstallsFilterOrFinishesFirst) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {AgeBetween(0, 99),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{2000})))});
  RetrievalSpec spec = f.Spec(pred, {0, 1, 2});
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kSorted);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(SawVerdict(engine, Verdict::kFilterInstalled) ||
              SawVerdict(engine, Verdict::kForegroundFinished) ||
              SawVerdict(engine, Verdict::kNoFilter));
}

// The race paths the Jscan's batch probe and append serve: a Jscan list
// completing inside a fast-first race, a completed list installed as the
// Sorted tactic's pre-fetch filter, and a spilled completed list filtering
// the next scan. age in [10,20] AND income < 4000 over 8,000 rows: the
// income list (176 RIDs) completes first and filters the age scan.
PredicateRef AgeIncomeConjunction() {
  return Predicate::And(
      {AgeBetween(10, 20),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{4000})))});
}

TEST(RaceTest, FastFirstJscanCompletesDuringRace) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec =
      f.Spec(AgeIncomeConjunction(), {0, 1, 2}, OptimizationGoal::kFastFirst);
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kFastFirst);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  const TraceEvent* v =
      FindVerdict(engine, Verdict::kJscanComplete);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, "during race");
  EXPECT_GT(v->b, 0);  // the foreground delivered rows before completion
  // Both lists completed: the final list is the intersection.
  ASSERT_NE(engine.jscan(), nullptr);
  EXPECT_EQ(engine.jscan()->completed_order().size(), 2u);
}

TEST(RaceTest, SortedTacticInstallsJscanFilter) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {0, 1, 2},
                              OptimizationGoal::kFastFirst);
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kSorted);
  std::vector<int64_t> ages;
  std::multiset<uint64_t> rids;
  RowBatch batch;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      rids.insert(batch.rid(r).ToU64());
      ages.push_back(batch.col(1).ValueAt(r).AsInt64());
    }
  }
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(std::is_sorted(ages.begin(), ages.end()));
  EXPECT_TRUE(SawVerdict(engine, Verdict::kFilterInstalled))
      << engine.events().ToJson();
  EXPECT_FALSE(SawVerdict(engine, Verdict::kForegroundFinished));
}

// Drains `engine`, returning its RIDs and the values of projection column
// `col` in delivery order.
std::multiset<uint64_t> DrainWithColumn(DynamicRetrieval* engine, size_t col,
                                        std::vector<int64_t>* values) {
  std::multiset<uint64_t> rids;
  for (const ResultRow& row : DrainRows(engine)) {
    rids.insert(row.rid.ToU64());
    values->push_back(row.values[col].AsInt64());
  }
  return rids;
}

// The race outcomes a foreground decides on its own. A zero pacing ratio
// starves the Jscan after its first quantum, so the foreground runs until
// it finishes or its delivered-RID buffer overflows.
RetrievalOptions StarvedBackground() {
  RetrievalOptions opt;
  opt.fgr_bgr_cost_ratio = 0.0;
  return opt;
}

TEST(RaceTest, SortedFscanFinishesFirst) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {0, 1, 2});
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec, StarvedBackground());
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kSorted);
  std::vector<int64_t> ages;
  auto rids = DrainWithColumn(&engine, 1, &ages);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(std::is_sorted(ages.begin(), ages.end()));
  const TraceEvent* v = FindVerdict(engine, Verdict::kForegroundFinished);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, "fscan");
}

TEST(RaceTest, IndexOnlySscanFinishesFirst) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {1, 2});
  DynamicRetrieval engine(&f.db, spec, StarvedBackground());
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  const TraceEvent* v = FindVerdict(engine, Verdict::kForegroundFinished);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, "sscan");
}

TEST(RaceTest, IndexOnlyBufferOverflowRetainsSscan) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  RetrievalOptions opt = StarvedBackground();
  opt.fgr_buffer_capacity = 8;
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {1, 2});
  DynamicRetrieval engine(&f.db, spec, opt);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  ASSERT_GT(rids.size(), opt.fgr_buffer_capacity);
  const TraceEvent* v = FindVerdict(engine, Verdict::kFgrBufferOverflow);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, "sscan-retained");
  EXPECT_FALSE(SawVerdict(engine, Verdict::kForegroundFinished));
}

// A Jscan that completes no list recommends a Tscan, but in the
// Index-Only race the Sscan, the safer strategy, delivers on: the sample
// names it as the winner.
TEST(RaceTest, IndexOnlyJscanRecommendingTscanLeavesTheSscanWinning) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(
      Predicate::And({AgeBetween(5, 95),
                      Predicate::Compare(
                          2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{190000})))}),
      {1, 2});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
  ASSERT_TRUE(SawVerdict(engine, Verdict::kJscanRecommendsTscan))
      << engine.events().ToJson();
  const CompetitionSample* sample = engine.competition_sample();
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->verdict, Verdict::kJscanRecommendsTscan);
  EXPECT_EQ(sample->winner(), "sscan");
}

// The Sorted tactic's foreground screens index entries on the covered
// residual (income < 4000 lives in the by_age_income key) before fetching.
TEST(RaceTest, SortedForegroundScreensOnItsIndexKey) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {0, 1, 3});
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec, StarvedBackground());
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kSorted);
  const AccessPathAnalysis& a = engine.analysis();
  ASSERT_GE(a.order_needed, 0);
  ASSERT_NE(a.indexes[a.order_needed].covered_residual, nullptr);
  uint64_t fetched = f.db.metrics()->Value("exec.records_fetched");
  std::vector<int64_t> ages;
  auto rids = DrainWithColumn(&engine, 1, &ages);
  fetched = f.db.metrics()->Value("exec.records_fetched") - fetched;
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(std::is_sorted(ages.begin(), ages.end()));
  const TraceEvent* v = FindVerdict(engine, Verdict::kForegroundFinished);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  EXPECT_EQ(v->detail, "fscan");
  // The whole restriction lives in the key, so only qualifying entries
  // reach their record fetch.
  EXPECT_EQ(fetched, rids.size());
}

// Every strategy charges its page reads to the query's context as each
// step ends, so a governed execution's page count is exactly the logical
// reads it made past the initial stage's estimation descents, whichever
// strategy read them last: the tiny shortcut's probe and final fetch, a
// lone stepper, the Jscan's last step, a race's loser, and the settle's
// read-back of a spilled final list.
TEST(RaceTest, EveryTacticChargesExactlyItsPageReads) {
  Families plain(8000);
  Families age(8000);
  age.Index("by_age", {"age"});
  Families two(8000);
  two.Index("by_age", {"age"});
  two.Index("by_income", {"income"});
  Families cov(8000);
  cov.Index("by_age_income", {"age", "income"});
  cov.Index("by_income", {"income"});
  auto income_lt = [](int64_t v) {
    return Predicate::Compare(2, CompareOp::kLt, Operand::Literal(Value(v)));
  };
  struct Case {
    Families* f;
    RetrievalSpec spec;
    Tactic tactic;
    std::optional<Verdict> verdict;  // nullopt = no verdict expected
    RetrievalOptions options = {};
  };
  std::vector<Case> cases = {
      {&two,
       two.Spec(Predicate::Between(2, Operand::Literal(Value(int64_t{1000})),
                                   Operand::Literal(Value(int64_t{1100}))),
                {0, 1, 2}),
       Tactic::kShortcutTiny, std::nullopt},
      {&plain, plain.Spec(AgeBetween(10, 30), {0, 1}), Tactic::kStaticTscan,
       std::nullopt},
      {&age, age.Spec(AgeBetween(10, 60), {1}), Tactic::kStaticSscan,
       std::nullopt},
      {&two, two.Spec(AgeIncomeConjunction(), {0, 1, 2}),
       Tactic::kBackgroundOnly, Verdict::kJscanComplete},
      {&two,
       two.Spec(AgeIncomeConjunction(), {0, 1, 2},
                OptimizationGoal::kFastFirst),
       Tactic::kFastFirst, Verdict::kJscanComplete},
      {&two,
       two.Spec(AgeIncomeConjunction(), {0, 1, 2},
                OptimizationGoal::kFastFirst),
       Tactic::kSorted, Verdict::kFilterInstalled},
      {&two,
       two.Spec(Predicate::And({AgeBetween(10, 12),
                                Predicate::Compare(
                                    2, CompareOp::kGe,
                                    Operand::Literal(Value(int64_t{1000})))}),
                {0, 1, 2}),
       Tactic::kSorted, Verdict::kNoFilter},
      {&cov, cov.Spec(Predicate::And({AgeBetween(2, 97), income_lt(3000)}),
                      {1, 2}),
       Tactic::kIndexOnly, Verdict::kJscanWon},
      {&cov, cov.Spec(Predicate::And({AgeBetween(10, 60), income_lt(3000)}),
                      {1, 2}),
       Tactic::kIndexOnly, Verdict::kSscanRetained},
  };
  cases[5].spec.order_by_column = 1;
  cases[6].spec.order_by_column = 1;
  // Background-only with one candidate, whose 176-RID list spills.
  cases.push_back({&two, two.Spec(income_lt(4000), {0, 1, 2}),
                   Tactic::kBackgroundOnly, Verdict::kJscanComplete});
  cases.back().options.jscan.rid_list.memory_capacity = 64;
  for (Case& c : cases) {
    QueryContext ctx;
    DynamicRetrieval engine(&c.f->db, c.spec, c.options);
    ASSERT_TRUE(engine.Open({}, &ctx).ok());
    ASSERT_EQ(engine.tactic(), c.tactic) << TacticName(c.tactic);
    auto rids = DrainRids(&engine);
    if (c.options.jscan.rid_list.memory_capacity == 64) {
      // The final list outgrew memory, so the settle read it back.
      const TraceEvent* v = FindVerdict(engine, Verdict::kJscanComplete);
      ASSERT_NE(v, nullptr) << engine.events().ToJson();
      EXPECT_GT(v->a, 64);
    }
    EXPECT_EQ(ctx.pages_read(), engine.CostSinceOpen().logical_reads -
                                    engine.analysis().estimation_pages)
        << TacticName(c.tactic);
    if (c.verdict.has_value()) {
      EXPECT_TRUE(SawVerdict(engine, *c.verdict)) << engine.events().ToJson();
    }
    EXPECT_EQ(rids, NaiveRids(c.spec, {}));
  }
}

// The Sscan the Jscan's list beat stops racing but keeps the cost it spent:
// its span reports it, and the race span adds it to the Jscan's.
TEST(RaceTest, JscanWonKeepsTheAbandonedSscanCost) {
  Families f(8000);
  f.Index("by_age_income", {"age", "income"});
  f.Index("by_income", {"income"});
  RetrievalSpec spec = f.Spec(
      Predicate::And({AgeBetween(2, 97),
                      Predicate::Compare(
                          2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{3000})))}),
      {1, 2});
  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open({}).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kIndexOnly);
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, {}));
  ASSERT_TRUE(SawVerdict(engine, Verdict::kJscanWon)) << engine.events().ToJson();
  const CompetitionSample* sample = engine.competition_sample();
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->winner(), "jscan");
  const ProfileSpan* race = FindSpan(engine.profile().root(), "race");
  const ProfileSpan* sscan = FindSpan(race, "sscan");
  const ProfileSpan* jscan = FindSpan(race, "jscan");
  ASSERT_NE(sscan, nullptr);
  ASSERT_NE(jscan, nullptr);
  EXPECT_GT(sscan->actual_cost, 0);
  EXPECT_DOUBLE_EQ(sscan->actual_cost, sample->foreground_cost);
  EXPECT_DOUBLE_EQ(race->actual_cost, sscan->actual_cost + jscan->actual_cost);
}

TEST(JscanTest, SpilledCompletedListFiltersTheNextScan) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  RetrievalOptions opt;
  opt.jscan.rid_list.memory_capacity = 64;  // the 176-RID list spills
  RetrievalSpec spec = f.Spec(AgeIncomeConjunction(), {0, 1, 2});
  DynamicRetrieval engine(&f.db, spec, opt);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  ASSERT_EQ(engine.tactic(), Tactic::kBackgroundOnly);
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  const TraceEvent* v =
      FindVerdict(engine, Verdict::kJscanComplete);
  ASSERT_NE(v, nullptr) << engine.events().ToJson();
  std::vector<const TraceEvent*> outcomes;
  for (const TraceEvent& e : engine.events().events()) {
    if (e.kind == TraceEventKind::kJscanIndexOutcome) outcomes.push_back(&e);
  }
  ASSERT_EQ(outcomes.size(), 2u);
  // The first list outgrew memory and was sealed spilled.
  EXPECT_EQ(outcomes[0]->subject, "by_income");
  EXPECT_EQ(outcomes[0]->detail, "completed");
  EXPECT_GT(outcomes[0]->b,
            static_cast<double>(opt.jscan.rid_list.memory_capacity));
  // Its lossy bitmap filtered the whole age scan: nothing was dropped that
  // the result needs, and most entries never reached the second list.
  EXPECT_EQ(outcomes[1]->subject, "by_age");
  EXPECT_EQ(outcomes[1]->detail, "completed");
  EXPECT_GE(outcomes[1]->b, static_cast<double>(rids.size()));
  EXPECT_LT(static_cast<uint64_t>(outcomes[1]->b),
            static_cast<uint64_t>(outcomes[1]->a) / 4);
  EXPECT_EQ(v->a, outcomes[1]->b);  // final list
}

// ------------------------------------------- §7 extension: OR coverage

TEST(OrCoverageTest, InListUsesMultiRangeIndexScan) {
  Families f(8000);
  f.Index("by_age", {"age"});
  // age IN (7, 42, 93): three point ranges on one index.
  auto pred = Predicate::Or(
      {Predicate::Compare(1, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{7}))),
       Predicate::Compare(1, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{42}))),
       Predicate::Compare(1, CompareOp::kEq,
                          Operand::Literal(Value(int64_t{93})))});
  RetrievalSpec spec = f.Spec(pred, {0, 1});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_NE(engine.tactic(), Tactic::kStaticTscan)
      << "the IN-list must be index-servable";
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_GT(rids.size(), 100u);
}

TEST(OrCoverageTest, DisjointRangesResolveExactlyOrCheaply) {
  Families f(8000);
  f.Index("by_income", {"income"});
  // Two rare bands OR-ed: (income < 300) OR (income BETWEEN 150000+)
  auto pred = Predicate::Or(
      {Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{300}))),
       Predicate::Between(2, Operand::Literal(Value(int64_t{199000})),
                          Operand::Literal(Value(int64_t{199300})))});
  RetrievalSpec spec = f.Spec(pred, {0, 2});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  CostMeter before = f.db.meter();
  ASSERT_TRUE(engine.Open(params).ok());
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  double cost = (f.db.meter() - before).Cost(f.db.cost_weights());
  double tscan_cost = EstimateTscanCost(spec, f.db.cost_weights());
  EXPECT_LT(cost * 3, tscan_cost)
      << "two tiny OR bands must beat a table scan";
}

TEST(OrCoverageTest, UnsatisfiableDisjunctionShortcuts) {
  Families f(1000);
  f.Index("by_age", {"age"});
  auto pred = Predicate::Or(
      {Predicate::Compare(1, CompareOp::kGt,
                          Operand::Literal(Value(int64_t{150}))),
       Predicate::Compare(1, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{-5})))});
  RetrievalSpec spec = f.Spec(pred, {0});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kShortcutEmpty);
}

class OrOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrOracleTest, RandomDisjunctionsMatchNaive) {
  Rng rng(GetParam());
  Families f(4000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  for (int q = 0; q < 10; ++q) {
    // Random OR of same-column predicates, optionally ANDed with another.
    uint32_t col = rng.NextBool() ? 1u : 2u;
    int64_t max_v = col == 1 ? 99 : 200000;
    std::vector<PredicateRef> branches;
    int n = 2 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < n; ++i) {
      int64_t lo = rng.NextInt(0, max_v);
      if (rng.NextBool()) {
        branches.push_back(Predicate::Compare(
            col, CompareOp::kEq, Operand::Literal(Value(lo))));
      } else {
        branches.push_back(Predicate::Between(
            col, Operand::Literal(Value(lo)),
            Operand::Literal(Value(lo + rng.NextInt(0, max_v / 10)))));
      }
    }
    PredicateRef pred = Predicate::Or(std::move(branches));
    if (rng.NextBool(0.4)) {
      pred = Predicate::And(
          {pred, Predicate::Mod(0, 2 + rng.NextInt(0, 3), 0)});
    }
    if (rng.NextBool(0.2)) pred = Predicate::Not(pred);
    RetrievalSpec spec = f.Spec(pred, {0, 1, 2});
    DynamicRetrieval engine(&f.db, spec);
    ParamMap params;
    ASSERT_TRUE(engine.Open(params).ok());
    ASSERT_EQ(DrainRids(&engine), NaiveRids(spec, params))
        << "query " << q << " seed " << GetParam() << " shape "
        << pred->ShapeString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrOracleTest,
                         ::testing::Values(71, 72, 73));

// ------------------------------------------------- learned index order

TEST(SessionTest, CompletedOrderSeedsNextExecution) {
  Families f(8000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
       Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
  RetrievalSpec spec = f.Spec(pred, {0});
  DynamicRetrieval engine(&f.db, spec);
  ParamMap run{{"lo", Value(int64_t{0})},
               {"hi", Value(int64_t{50})},
               {"cap", Value(int64_t{3000})}};
  ASSERT_TRUE(engine.Open(run).ok());
  auto first = DrainRids(&engine);
  ASSERT_TRUE(engine.Open(run).ok());
  auto second = DrainRids(&engine);
  EXPECT_EQ(first, second);
}

TEST(RaceTest, FastFirstCostLimitTriggersFallback) {
  Families f(8000);
  f.Index("by_age", {"age"});
  RetrievalOptions opt;
  opt.fgr_cost_limit_fraction = 1e-6;  // any fetch busts the limit
  opt.fgr_bgr_cost_ratio = 0.0;        // foreground goes first
  opt.batch_size = 1;  // row-at-a-time: the race must outlive the borrows
  RetrievalSpec spec =
      f.Spec(AgeBetween(10, 15), {0, 1}, OptimizationGoal::kFastFirst);
  DynamicRetrieval engine(&f.db, spec, opt);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  auto rids = DrainRids(&engine);
  EXPECT_EQ(rids, NaiveRids(spec, params));
  EXPECT_TRUE(SawVerdict(engine, Verdict::kFgrCostLimit));
}

TEST(TacticTest, SortedTacticAlsoServesTotalTime) {
  Families f(5000);
  f.Index("by_age", {"age"});
  f.Index("by_income", {"income"});
  auto pred = Predicate::And(
      {AgeBetween(0, 99),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{5000})))});
  RetrievalSpec spec = f.Spec(pred, {0, 1, 2}, OptimizationGoal::kTotalTime);
  spec.order_by_column = 1;
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(engine.tactic(), Tactic::kSorted);
  EXPECT_TRUE(engine.delivers_order());
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
}

TEST(TacticTest, FastFirstDeliversFirstRowBeforeJscanCompletes) {
  Families f(20000);
  f.Index("by_age", {"age"});
  RetrievalSpec spec =
      f.Spec(AgeBetween(30, 60), {0, 1}, OptimizationGoal::kFastFirst);
  DynamicRetrieval engine(&f.db, spec);
  ParamMap params;
  ASSERT_TRUE(engine.Open(params).ok());
  RowBatch batch;
  auto more = engine.NextBatch(&batch, 1);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(batch.num_rows(), 1u);
  // The first row arrived while the background is still scanning (or just
  // settled): the engine must not have drained the whole result yet.
  ASSERT_NE(engine.jscan(), nullptr);
}

// -------------------------------------------- randomized oracle property

struct RandomCase {
  uint64_t seed;
};

class EngineOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOracleTest, DynamicMatchesNaiveAcrossRandomQueries) {
  Rng rng(GetParam());
  Families f(4000, 2048);
  // Random subset of indexes.
  if (rng.NextBool(0.8)) f.Index("by_age", {"age"});
  if (rng.NextBool(0.8)) f.Index("by_income", {"income"});
  if (rng.NextBool(0.5)) f.Index("by_age_income", {"age", "income"});
  if (rng.NextBool(0.3)) f.Index("by_city", {"city"});

  for (int q = 0; q < 12; ++q) {
    // Random conjunction.
    std::vector<PredicateRef> conj;
    int terms = 1 + static_cast<int>(rng.NextBounded(3));
    for (int t = 0; t < terms; ++t) {
      switch (rng.NextBounded(5)) {
        case 0: {
          int64_t lo = rng.NextInt(0, 99);
          conj.push_back(Predicate::Between(
              1, Operand::Literal(Value(lo)),
              Operand::Literal(Value(lo + rng.NextInt(0, 40)))));
          break;
        }
        case 1:
          conj.push_back(Predicate::Compare(
              2, CompareOp::kLt,
              Operand::Literal(Value(rng.NextInt(0, 200000)))));
          break;
        case 2:
          conj.push_back(Predicate::Mod(0, 2 + rng.NextInt(0, 5),
                                        rng.NextInt(0, 1)));
          break;
        case 3:
          conj.push_back(Predicate::Contains(
              3, std::to_string(rng.NextBounded(10))));
          break;
        case 4:
          conj.push_back(Predicate::Or(
              {Predicate::Compare(
                   1, CompareOp::kLt,
                   Operand::Literal(Value(rng.NextInt(0, 50)))),
               Predicate::Compare(
                   2, CompareOp::kGt,
                   Operand::Literal(Value(rng.NextInt(0, 200000))))}));
          break;
      }
    }
    auto pred = Predicate::And(std::move(conj));
    RetrievalSpec spec = f.Spec(pred, {0, 1, 2, 3},
                                rng.NextBool() ? OptimizationGoal::kFastFirst
                                               : OptimizationGoal::kTotalTime);
    RetrievalOptions opt;
    if (rng.NextBool(0.3)) opt.fgr_buffer_capacity = 4;
    if (rng.NextBool(0.3)) opt.jscan.rid_list.memory_capacity = 64;
    DynamicRetrieval engine(&f.db, spec, opt);
    ParamMap params;
    ASSERT_TRUE(engine.Open(params).ok());
    auto got = DrainRids(&engine);
    auto want = NaiveRids(spec, params);
    ASSERT_EQ(got, want) << "query " << q << " seed " << GetParam()
                         << " tactic " << TacticName(engine.tactic())
                         << " shape " << pred->ShapeString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracleTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006));

}  // namespace
}  // namespace dynopt
