// Reproduces the §4 motivating experiment:
//
//     select * from FAMILIES where AGE >= :A1
//
// with :A1 swept from "deliver everything" (0) to "deliver nothing" (200).
// Competitors:
//   dynamic       — this library's engine, re-optimized per run;
//   static-blind  — the [SACL79] baseline choosing one frozen plan at
//                   compile time with :A1 unknown (magic selectivities);
//   frozen-index  — the plan a user "plan freeze" hint would pin: always
//                   the AGE index;
//   frozen-tscan  — always the sequential scan;
//   oracle        — min(frozen-index, frozen-tscan) per run, the best any
//                   single frozen plan could do with perfect foresight.
//
// The paper's claim: only per-run (dynamic) choice tracks the winner across
// the crossover, and the empty run resolves in a handful of page reads.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "obs/bench_report.h"
#include "util/ascii_chart.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 50000;

struct RunCost {
  double cost = 0;
  uint64_t rows = 0;
};

RunCost RunDynamic(Database* db, DynamicRetrieval* engine, int64_t a1) {
  Rng rng(1);
  db->pool()->EvictAll().ok();  // cold cache: comparable runs
  ParamMap params{{"A1", Value(a1)}};
  CostMeter before = db->meter();
  Status st = engine->Open(params);
  if (!st.ok()) std::printf("open failed: %s\n", st.ToString().c_str());
  RowBatch batch;
  RunCost rc;
  for (;;) {
    auto more = engine->NextBatch(&batch);
    if (!more.ok()) {
      std::printf("next failed: %s\n", more.status().ToString().c_str());
      break;
    }
    if (!*more) break;
    rc.rows += batch.num_rows();
  }
  rc.cost = (db->meter() - before).Cost(db->cost_weights());
  return rc;
}

RunCost RunStatic(Database* db, const RetrievalSpec& spec,
                  const StaticPlanChoice& choice, int64_t a1) {
  db->pool()->EvictAll().ok();
  StaticRetrieval exec(db, spec, choice);
  ParamMap params{{"A1", Value(a1)}};
  CostMeter before = db->meter();
  Status st = exec.Open(params);
  if (!st.ok()) std::printf("open failed: %s\n", st.ToString().c_str());
  RowBatch batch;
  RunCost rc;
  for (;;) {
    auto more = exec.NextBatch(&batch);
    if (!more.ok()) break;
    if (!*more) break;
    rc.rows += batch.num_rows();
  }
  rc.cost = (db->meter() - before).Cost(db->cost_weights());
  return rc;
}

void Run() {
  std::printf("=== §4 host-variable experiment: AGE >= :A1 over %lld rows "
              "===\n\n",
              static_cast<long long>(kRows));
  Database db(DatabaseOptions{.pool_pages = 512});
  // FAMILIES with a realistic record payload (~20 records per page, like
  // the paper's era) so the index-vs-sequential crossover falls mid-sweep.
  TableSpec spec_t;
  spec_t.name = "families";
  spec_t.columns = {
      {{"id", ValueType::kInt64}, SequentialInt()},
      {{"age", ValueType::kInt64}, UniformInt(0, 99)},
      {{"income", ValueType::kInt64}, UniformInt(0, 200000)},
      {{"payload", ValueType::kString}, CategoricalString(std::string(380, 'p'), 1000)},
  };
  auto table = BuildTable(&db, spec_t, kRows, 42);
  if (!table.ok()) return;
  (*table)->CreateIndex("by_age", {"age"}).ok();

  RetrievalSpec spec;
  spec.table = *table;
  spec.restriction =
      Predicate::Compare(1, CompareOp::kGe, Operand::HostVar("A1"));
  spec.projection = {0, 1, 2, 3};

  // Compile-time static choice — :A1 unknown.
  ParamMap compile_time;
  auto blind = ChooseStaticPlan(&db, spec, compile_time);
  if (!blind.ok()) return;
  std::printf("static-blind compile-time choice: %s\n\n",
              blind->ToString().c_str());

  StaticPlanChoice frozen_index;
  frozen_index.kind = StaticPlanChoice::Kind::kFscan;
  frozen_index.index = *(*table)->GetIndex("by_age");
  StaticPlanChoice frozen_tscan;
  frozen_tscan.kind = StaticPlanChoice::Kind::kTscan;

  DynamicRetrieval engine(&db, spec);

  std::printf("%6s %8s | %12s %12s %12s %12s %12s | %s\n", "A1", "rows",
              "dynamic", "static-blind", "frozen-index", "frozen-tscan",
              "oracle", "dynamic vs oracle");
  BenchReport report("host_variable");
  std::vector<double> dyn_curve, oracle_curve;
  for (int64_t a1 :
       std::vector<int64_t>{0, 10, 25, 50, 75, 90, 95, 98, 99, 100, 200}) {
    RunCost dyn = RunDynamic(&db, &engine, a1);
    RunCost blind_rc = RunStatic(&db, spec, *blind, a1);
    RunCost fidx = RunStatic(&db, spec, frozen_index, a1);
    RunCost ftsc = RunStatic(&db, spec, frozen_tscan, a1);
    double oracle = std::min(fidx.cost, ftsc.cost);
    dyn_curve.push_back(dyn.cost);
    oracle_curve.push_back(oracle);
    std::printf("%6lld %8llu | %12.0f %12.0f %12.0f %12.0f %12.0f | %6.2fx\n",
                static_cast<long long>(a1),
                static_cast<unsigned long long>(dyn.rows), dyn.cost,
                blind_rc.cost, fidx.cost, ftsc.cost, oracle,
                dyn.cost / std::max(oracle, 1.0));
    char key[32];
    std::snprintf(key, sizeof(key), "a1_%lld", static_cast<long long>(a1));
    std::string k(key);
    report.Add(k + ".dynamic_cost", dyn.cost);
    report.Add(k + ".static_blind_cost", blind_rc.cost);
    report.Add(k + ".oracle_cost", oracle);
    report.Add(k + ".dynamic_vs_oracle", dyn.cost / std::max(oracle, 1.0));
  }
  report.AddMeter("meter", db.meter());
  report.WriteFile();
  std::printf("\n  dynamic cost over the sweep: %s\n",
              Sparkline(dyn_curve).c_str());
  std::printf("  oracle  cost over the sweep: %s\n",
              Sparkline(oracle_curve).c_str());
  std::printf(
      "\nExpected shape: frozen-index explodes at small :A1, frozen-tscan\n"
      "is flat; static-blind is stuck with one of those rows; dynamic\n"
      "tracks the oracle within a small overhead factor and collapses to\n"
      "near-zero on the empty run (:A1 >= 100).\n");
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Run();
  return 0;
}
