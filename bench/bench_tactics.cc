// §7 experiment: each shipped tactic against its naive single-strategy
// alternatives, plus the §4 goal-setting effect.
//
//  goal        cost-to-first-K vs cost-to-completion under fast-first and
//              total-time goals for the same query (§4: "improves query
//              performance up to a few decimal orders");
//  bgr-only    Background-Only (Jscan + Fin) vs classical Fscan on the
//              best single index vs Tscan;
//  fast-first  the borrowing foreground vs pure Fscan and pure Jscan under
//              early and late termination;
//  sorted      order-delivering Fscan + Jscan filter vs unfiltered Fscan;
//  index-only  Sscan/Jscan race vs each alone.
//
// Every drained run (dynamic or frozen) must return as many rows as a naive
// Tscan + filter over the same table; the bench exits 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "harness.h"
#include "workload/oracle.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 60000;

/// Drains `engine` from a cold cache until `k` rows (0 = to the end, then
/// checked against the naive oracle); returns the metered cost.
Result<double> RunEngine(Database* db, DynamicRetrieval* engine,
                         const RetrievalSpec& spec, const ParamMap& p,
                         uint64_t k, Report* report,
                         uint64_t* rows_out = nullptr) {
  DYNOPT_RETURN_IF_ERROR(db->pool()->EvictAll());
  DYNOPT_ASSIGN_OR_RETURN(Drained d, Drain(db, engine, p, k));
  if (k == 0) {
    DYNOPT_RETURN_IF_ERROR(CheckRowCounts(
        report, spec, p,
        "dynamic " + std::string(TacticName(engine->tactic())), {d.rows}));
  }
  if (rows_out != nullptr) *rows_out = d.rows;
  return d.meter.Cost(db->cost_weights());
}

Result<double> RunFrozen(Database* db, const RetrievalSpec& spec,
                         StaticPlanChoice choice, const ParamMap& p,
                         uint64_t k, Report* report) {
  DYNOPT_RETURN_IF_ERROR(db->pool()->EvictAll());
  StaticRetrieval exec(db, spec, std::move(choice));
  DYNOPT_ASSIGN_OR_RETURN(Drained d, Drain(db, &exec, p, k));
  if (k == 0) {
    DYNOPT_RETURN_IF_ERROR(CheckRowCounts(
        report, spec, p, "frozen " + exec.choice().ToString(), {d.rows}));
  }
  return d.meter.Cost(db->cost_weights());
}

StaticPlanChoice Frozen(StaticPlanChoice::Kind kind,
                        SecondaryIndex* index = nullptr) {
  StaticPlanChoice c;
  c.kind = kind;
  c.index = index;
  return c;
}

Status GoalSection(Database* db, Table* table, Report* report) {
  std::printf("--- §4 goal setting: EXISTS-style first-row delivery, "
              "income in [0:4000] (2%%) AND age <= 90 ---\n");
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = Predicate::And(
      {Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{4000}))),
       Predicate::Compare(1, CompareOp::kLe,
                          Operand::Literal(Value(int64_t{90})))});
  spec.projection = {0, 1, 2};
  ParamMap p;

  spec.goal = OptimizationGoal::kFastFirst;
  DynamicRetrieval ff(db, spec);
  spec.goal = OptimizationGoal::kTotalTime;
  DynamicRetrieval tt(db, spec);

  DYNOPT_ASSIGN_OR_RETURN(double ff_first,
                          RunEngine(db, &ff, spec, p, 1, report));
  DYNOPT_ASSIGN_OR_RETURN(double tt_first,
                          RunEngine(db, &tt, spec, p, 1, report));
  DYNOPT_ASSIGN_OR_RETURN(double ff_all,
                          RunEngine(db, &ff, spec, p, 0, report));
  DYNOPT_ASSIGN_OR_RETURN(double tt_all,
                          RunEngine(db, &tt, spec, p, 0, report));
  std::printf("%24s %14s %14s\n", "goal", "first-row cost", "full cost");
  std::printf("%24s %14.0f %14.0f\n", "fast-first", ff_first, ff_all);
  std::printf("%24s %14.0f %14.0f\n", "total-time", tt_first, tt_all);
  std::printf("  An EXISTS probe under fast-first answers %.1fx cheaper "
              "(no offline RID-list phase before the first record); the\n"
              "  full drain stays within %.2fx of the total-time run.\n\n",
              tt_first / std::max(ff_first, 1.0),
              ff_all / std::max(tt_all, 1.0));
  report->Add("goal.fast_first.first_row_cost", ff_first);
  report->Add("goal.total_time.first_row_cost", tt_first);
  report->Add("goal.fast_first.full_cost", ff_all);
  report->Add("goal.total_time.full_cost", tt_all);
  report->Add("goal.first_row_speedup", tt_first / std::max(ff_first, 1.0));
  return Status::OK();
}

Status BackgroundOnlySection(Database* db, Table* table, Report* report) {
  std::printf("--- Background-Only vs classical alternatives: income in "
              "[0:4000] (2%%) AND age in [0:30] (31%%) ---\n");
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = Predicate::And(
      {Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{4000}))),
       Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{30})))});
  spec.projection = {0, 1, 2, 3};
  ParamMap p;

  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_income,
                          table->GetIndex("by_income"));
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_age, table->GetIndex("by_age"));
  DynamicRetrieval engine(db, spec);
  uint64_t rows = 0;
  DYNOPT_ASSIGN_OR_RETURN(double dyn,
                          RunEngine(db, &engine, spec, p, 0, report, &rows));
  DYNOPT_ASSIGN_OR_RETURN(
      double f_income,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kFscan, by_income),
                p, 0, report));
  DYNOPT_ASSIGN_OR_RETURN(
      double f_age,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kFscan, by_age), p,
                0, report));
  DYNOPT_ASSIGN_OR_RETURN(
      double tscan,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kTscan), p, 0,
                report));
  std::printf("  result rows: %llu  (tactic: %s)\n",
              static_cast<unsigned long long>(rows),
              std::string(TacticName(engine.tactic())).c_str());
  std::printf("%28s %12s\n", "strategy", "cost");
  std::printf("%28s %12.0f\n", "dynamic (background-only)", dyn);
  std::printf("%28s %12.0f\n", "Fscan(by_income)", f_income);
  std::printf("%28s %12.0f\n", "Fscan(by_age)", f_age);
  std::printf("%28s %12.0f\n", "Tscan", tscan);
  std::printf("  speedup vs best classical: %.2fx, vs worst: %.1fx\n\n",
              std::min({f_income, f_age, tscan}) / std::max(dyn, 1.0),
              std::max({f_income, f_age, tscan}) / std::max(dyn, 1.0));
  report->Add("bgr_only.dynamic_cost", dyn);
  report->Add("bgr_only.best_classical_cost",
              std::min({f_income, f_age, tscan}));
  report->Add("bgr_only.speedup_vs_best",
              std::min({f_income, f_age, tscan}) / std::max(dyn, 1.0));
  return Status::OK();
}

Status FastFirstSection(Database* db, Table* table, Report* report) {
  std::printf("--- Fast-First vs pure strategies: income in [0:4000] AND "
              "age in [0:30], stop after 10 vs drain ---\n");
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction = Predicate::And(
      {Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{4000}))),
       Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{30})))});
  spec.projection = {0, 1, 2, 3};
  spec.goal = OptimizationGoal::kFastFirst;
  ParamMap p;

  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_income,
                          table->GetIndex("by_income"));
  DynamicRetrieval ff(db, spec);
  RetrievalSpec tt_spec = spec;
  tt_spec.goal = OptimizationGoal::kTotalTime;
  DynamicRetrieval jscan_only(db, tt_spec);

  std::printf("%28s %14s %14s\n", "strategy", "first-10 cost", "drain cost");
  for (auto [label, key, run] :
       std::vector<std::tuple<const char*, const char*,
                              std::function<Result<double>(uint64_t)>>>{
           {"fast-first tactic", "fast_first.tactic",
            [&](uint64_t k) { return RunEngine(db, &ff, spec, p, k, report); }},
           {"pure Jscan (total-time)", "fast_first.pure_jscan",
            [&](uint64_t k) {
              return RunEngine(db, &jscan_only, tt_spec, p, k, report);
            }},
           {"pure Fscan(by_income)", "fast_first.pure_fscan",
            [&](uint64_t k) {
              return RunFrozen(
                  db, spec, Frozen(StaticPlanChoice::Kind::kFscan, by_income),
                  p, k, report);
            }},
       }) {
    DYNOPT_ASSIGN_OR_RETURN(double first10, run(10));
    DYNOPT_ASSIGN_OR_RETURN(double drain, run(0));
    std::printf("%28s %14.0f %14.0f\n", label, first10, drain);
    std::string k(key);
    report->Add(k + ".first10_cost", first10);
    report->Add(k + ".drain_cost", drain);
  }
  std::printf("  Expected: fast-first near-Fscan on the early stop, "
              "near-Jscan on the drain — the best of both worlds.\n\n");
  return Status::OK();
}

Status SortedSection(Database* db, Table* table, Report* report) {
  std::printf("--- Sorted tactic: ORDER BY age, restriction income in "
              "[0:2000] (1%%) ---\n");
  RetrievalSpec spec;
  spec.table = table;
  spec.restriction =
      Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                         Operand::Literal(Value(int64_t{2000})));
  spec.projection = {0, 1, 2, 3};
  spec.order_by_column = 1;
  spec.goal = OptimizationGoal::kFastFirst;
  ParamMap p;

  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_age, table->GetIndex("by_age"));
  DynamicRetrieval sorted_engine(db, spec);
  uint64_t rows = 0;
  DYNOPT_ASSIGN_OR_RETURN(
      double dyn, RunEngine(db, &sorted_engine, spec, p, 0, report, &rows));
  // Naive ordered alternative: plain Fscan over by_age (delivers order,
  // fetches everything in the age range = the whole table).
  DYNOPT_ASSIGN_OR_RETURN(
      double plain,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kFscan, by_age), p,
                0, report));
  std::printf("  result rows: %llu (tactic %s)\n",
              static_cast<unsigned long long>(rows),
              std::string(TacticName(sorted_engine.tactic())).c_str());
  std::printf("%34s %12s\n", "strategy", "cost");
  std::printf("%34s %12.0f\n", "sorted tactic (Fscan + filter)", dyn);
  std::printf("%34s %12.0f\n", "plain ordered Fscan(by_age)", plain);
  std::printf("  filter saves %.1fx by rejecting RIDs before their "
              "fetches.\n\n",
              plain / std::max(dyn, 1.0));
  report->Add("sorted.filtered_cost", dyn);
  report->Add("sorted.plain_fscan_cost", plain);
  report->Add("sorted.filter_speedup", plain / std::max(dyn, 1.0));
  return Status::OK();
}

Status IndexOnlySection(Database* db, Report* report) {
  std::printf("--- Index-Only tactic: covering (age,income) index races "
              "Jscan over by_income2 ---\n");
  TableSpec ts;
  ts.name = "families2";
  ts.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"age", ValueType::kInt64}, UniformInt(0, 99)},
      {{"income", ValueType::kInt64}, UniformInt(0, 200000)},
      {{"payload", ValueType::kString},
       CategoricalString(std::string(290, 'p'), 100)},
  };
  DYNOPT_ASSIGN_OR_RETURN(Table * table2, BuildTable(db, ts, kRows, 99));
  DYNOPT_ASSIGN_OR_RETURN(
      SecondaryIndex * cover,
      table2->CreateIndex("cover_age_income", {"age", "income"}));
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_income2,
                          table2->CreateIndex("by_income2", {"income"}));

  RetrievalSpec spec;
  spec.table = table2;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{40}))),
       Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                          Operand::Literal(Value(int64_t{3000})))});
  spec.projection = {1, 2};
  ParamMap p;

  DynamicRetrieval engine(db, spec);
  uint64_t rows = 0;
  DYNOPT_ASSIGN_OR_RETURN(double dyn,
                          RunEngine(db, &engine, spec, p, 0, report, &rows));
  DYNOPT_ASSIGN_OR_RETURN(
      double sscan,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kSscan, cover), p, 0,
                report));
  DYNOPT_ASSIGN_OR_RETURN(
      double fscan,
      RunFrozen(db, spec, Frozen(StaticPlanChoice::Kind::kFscan, by_income2),
                p, 0, report));
  std::printf("  result rows: %llu (tactic %s)\n",
              static_cast<unsigned long long>(rows),
              std::string(TacticName(engine.tactic())).c_str());
  std::printf("%28s %12s\n", "strategy", "cost");
  std::printf("%28s %12.0f\n", "index-only race", dyn);
  std::printf("%28s %12.0f\n", "pure Sscan(covering)", sscan);
  std::printf("%28s %12.0f\n", "pure Fscan(by_income2)", fscan);
  std::printf("  race lands within overhead of the better side "
              "(%.2fx of min).\n",
              dyn / std::max(std::min(sscan, fscan), 1.0));
  report->Add("index_only.race_cost", dyn);
  report->Add("index_only.pure_sscan_cost", sscan);
  report->Add("index_only.pure_fscan_cost", fscan);
  report->Add("index_only.race_vs_min",
              dyn / std::max(std::min(sscan, fscan), 1.0));
  return Status::OK();
}

Status Run(Report* report) {
  std::printf("=== §7 retrieval tactics vs naive alternatives (%lld rows) "
              "===\n\n",
              static_cast<long long>(kRows));
  Database db(DatabaseOptions{.pool_pages = 1024});
  // Padded records (~25 per page) so page-fetch economics resemble the
  // paper's era; fat rows are what make RID-list shrinking pay.
  TableSpec ts;
  ts.name = "families";
  ts.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"age", ValueType::kInt64}, UniformInt(0, 99)},
      {{"income", ValueType::kInt64}, UniformInt(0, 200000)},
      {{"payload", ValueType::kString},
       CategoricalString(std::string(290, 'p'), 100)},
  };
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildTable(&db, ts, kRows, 42));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_income", {"income"}).status());

  DYNOPT_RETURN_IF_ERROR(GoalSection(&db, table, report));
  DYNOPT_RETURN_IF_ERROR(BackgroundOnlySection(&db, table, report));
  DYNOPT_RETURN_IF_ERROR(FastFirstSection(&db, table, report));
  DYNOPT_RETURN_IF_ERROR(SortedSection(&db, table, report));
  DYNOPT_RETURN_IF_ERROR(IndexOnlySection(&db, report));
  report->AddMeter("meter", db.meter());
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("tactics");
  return report.Finish(dynopt::Run(&report));
}
