// Tests for index screening, sampling-refined estimation, and the
// execution report.

#include <set>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "core/access_path.h"
#include "core/explain.h"
#include "core/retrieval.h"
#include "families.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

// ------------------------------------------------- CoveredConjunction

constexpr uint32_t kId = 0, kAge = 1, kCity = 3;

TEST(CoveredConjunctionTest, KeepsOnlyCoveredConjuncts) {
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kGe,
                          Operand::Literal(Value(int64_t{10}))),
       Predicate::Contains(kCity, "7"),
       Predicate::Mod(kId, 2, 0)});
  auto covered = CoveredConjunction(p, {kAge, kCity});
  ASSERT_NE(covered, nullptr);
  std::set<uint32_t> cols;
  covered->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<uint32_t>{kAge, kCity}));

  // Mod(kId) is covered by {kId} alone.
  auto only_id = CoveredConjunction(p, {kId});
  ASSERT_NE(only_id, nullptr);
  std::set<uint32_t> id_cols;
  only_id->CollectColumns(&id_cols);
  EXPECT_EQ(id_cols, (std::set<uint32_t>{kId}));
  // Nothing is covered by an unrelated column set.
  EXPECT_EQ(CoveredConjunction(p, {uint32_t{9}}), nullptr);
}

TEST(CoveredConjunctionTest, ScreeningOmitsPlainSargsOnLeading) {
  auto p = Predicate::And(
      {Predicate::Compare(kAge, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{50}))),
       Predicate::Mod(kAge, 7, 0)});
  // Screening on an age-leading index keeps only the Mod.
  auto screen = ScreeningConjunction(p, {kAge}, kAge);
  ASSERT_NE(screen, nullptr);
  EXPECT_EQ(screen->kind(), Predicate::Kind::kMod);
  // With only the comparison present, nothing remains to screen.
  auto cmp_only = Predicate::Compare(kAge, CompareOp::kLt,
                                     Operand::Literal(Value(int64_t{50})));
  EXPECT_EQ(ScreeningConjunction(cmp_only, {kAge}, kAge), nullptr);
}

TEST(CoveredConjunctionTest, SingleConjunctAndNonAndRoots) {
  auto mod = Predicate::Mod(kId, 2, 0);
  auto covered = CoveredConjunction(mod, {kId});
  EXPECT_EQ(covered, mod);
  EXPECT_EQ(CoveredConjunction(mod, {kAge}), nullptr);
  auto or_pred = Predicate::Or(
      {Predicate::Contains(kCity, "a"), Predicate::Contains(kCity, "b")});
  EXPECT_NE(CoveredConjunction(or_pred, {kCity}), nullptr);
  EXPECT_EQ(CoveredConjunction(or_pred, {kAge}), nullptr);
}

// ------------------------------------------------------- screening e2e

struct ScreenFixture {
  Database db;
  Table* table = nullptr;

  ScreenFixture() {
    // Padded rows; composite index (age, city) lets city predicates be
    // screened from the key while the record fetch stays expensive.
    TableSpec ts;
    ts.name = "t";
    ts.columns = {
        {{"id", ValueType::kInt64}, SequentialInt()},
        {{"age", ValueType::kInt64}, UniformInt(0, 99)},
        {{"income", ValueType::kInt64}, UniformInt(0, 200000)},
        {{"city", ValueType::kString}, CategoricalString("city", 50)},
        {{"payload", ValueType::kString},
         CategoricalString(std::string(200, 'p'), 10)},
    };
    auto t = BuildTable(&db, ts, 20000, 5);
    EXPECT_TRUE(t.ok());
    table = *t;
    table->CreateIndex("by_age_city", {"age", "city"}).ok();
  }
};

TEST(ScreeningTest, JscanScreensNonSargableCoveredConjuncts) {
  ScreenFixture f;
  // age in [10,40] AND city == "city7": the city equality is covered by
  // the (age, city) index but not sargable on its leading column.
  auto pred = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{10})),
                          Operand::Literal(Value(int64_t{40}))),
       Predicate::Compare(3, CompareOp::kEq,
                          Operand::Literal(Value("city7")))});
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = pred;
  spec.projection = {0, 1, 3};
  ParamMap params;

  auto analysis = AnalyzeAccessPaths(spec, params);
  ASSERT_TRUE(analysis.ok());
  ASSERT_EQ(analysis->indexes.size(), 1u);
  EXPECT_NE(analysis->indexes[0].covered_residual, nullptr)
      << "the city conjunct must be recognized as screenable";

  std::vector<const IndexClassification*> cands{&analysis->indexes[0]};
  Jscan jscan(&f.db, spec, params, cands, Jscan::Options());
  ASSERT_TRUE(jscan.RunToCompletion().ok());
  ASSERT_EQ(jscan.phase(), Jscan::Phase::kComplete);
  // The final list holds only rows passing BOTH conjuncts (~31% * 2%),
  // not the whole age range (~31%).
  EXPECT_LT(jscan.final_list()->size(), 600u);
  EXPECT_GT(jscan.final_list()->size(), 20u);
}

TEST(ScreeningTest, EngineResultsUnchangedByScreening) {
  ScreenFixture f;
  auto pred = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{60}))),
       Predicate::Contains(3, "y3")});
  RetrievalSpec spec;
  spec.table = f.table;
  spec.restriction = pred;
  spec.projection = {0, 1, 3};
  ParamMap params;

  DynamicRetrieval engine(&f.db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  EXPECT_EQ(DrainRids(&engine), NaiveRids(spec, params));
}

// ------------------------------------------------- sampling refinement

TEST(SamplingRefinementTest, ReordersCandidatesByEffectiveSelectivity) {
  Database db;
  // Two indexed columns: `a` has a WIDE range but a screenable residual
  // that kills almost everything; `b` has a narrower range and no
  // residual. Effective selectivity favors `a`; raw ranges favor `b`.
  TableSpec ts;
  ts.name = "t";
  ts.columns = {
      {{"a", ValueType::kInt64}, UniformInt(0, 999)},
      {{"b", ValueType::kInt64}, UniformInt(0, 999)},
  };
  auto t = BuildTable(&db, ts, 30000, 11);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_a", {"a"}).ok();
  (*t)->CreateIndex("by_b", {"b"}).ok();

  // a in [0, 500) (~50%) AND a % 100 == 0 (1% of that) AND b < 100 (~10%).
  auto pred = Predicate::And(
      {Predicate::Compare(0, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{500}))),
       Predicate::Mod(0, 100, 0),
       Predicate::Compare(1, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{100})))});
  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = pred;
  spec.projection = {0, 1};
  ParamMap params;

  InitialStageOptions plain;
  auto without = AnalyzeAccessPaths(spec, params, plain);
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(without->jscan_order.size(), 2u);
  EXPECT_EQ(without->indexes[without->jscan_order[0]].index->name(), "by_b")
      << "raw ranges order b (10%) before a (50%)";

  InitialStageOptions refined = plain;
  refined.sampling_refinement = true;
  refined.sampling_samples = 200;
  auto with = AnalyzeAccessPaths(spec, params, refined);
  ASSERT_TRUE(with.ok());
  ASSERT_EQ(with->jscan_order.size(), 2u);
  const auto& first = with->indexes[with->jscan_order[0]];
  EXPECT_EQ(first.index->name(), "by_a")
      << "sampling sees the Mod residual: effective selectivity ~0.5%";
  EXPECT_TRUE(first.refined_by_sampling);
  // The refined estimate is in the right ballpark (~150 of 30000).
  EXPECT_LT(first.estimate.estimated_rids, 600.0);
}

// ------------------------------------------------------------- explain

TEST(ExplainTest, ReportNamesTacticDecisionsAndCosts) {
  Database db;
  auto t = BuildFamilies(&db, 5000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();
  (*t)->CreateIndex("by_income", {"income"}).ok();

  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{5})),
                          Operand::Literal(Value(int64_t{20}))),
       Predicate::Compare(2, CompareOp::kLt,
                          Operand::Literal(Value(int64_t{9000})))});
  spec.projection = {0};
  ParamMap params;
  DynamicRetrieval engine(&db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  RowBatch batch;
  for (;;) {
    auto more = engine.NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  std::string report = ExplainExecution(engine);
  EXPECT_NE(report.find("tactic: background-only"), std::string::npos)
      << report;
  EXPECT_NE(report.find("by_age"), std::string::npos);
  EXPECT_NE(report.find("by_income"), std::string::npos);
  EXPECT_NE(report.find("guaranteed best cost"), std::string::npos);
  EXPECT_NE(report.find("decision trace"), std::string::npos);
  EXPECT_NE(report.find("cost: "), std::string::npos);
}

TEST(ExplainTest, ShortcutReportMentionsShortcut) {
  Database db;
  auto t = BuildFamilies(&db, 1000);
  ASSERT_TRUE(t.ok());
  (*t)->CreateIndex("by_age", {"age"}).ok();
  RetrievalSpec spec;
  spec.table = *t;
  spec.restriction = Predicate::Compare(
      1, CompareOp::kGt, Operand::Literal(Value(int64_t{500})));
  spec.projection = {0};
  ParamMap params;
  DynamicRetrieval engine(&db, spec);
  ASSERT_TRUE(engine.Open(params).ok());
  std::string report = ExplainExecution(engine);
  EXPECT_NE(report.find("empty-range shortcut"), std::string::npos) << report;
}

}  // namespace
}  // namespace dynopt
