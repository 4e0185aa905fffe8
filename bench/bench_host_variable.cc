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
//
// Every run's row count must match the naive oracle's (a row-at-a-time
// Tscan + filter); the bench exits 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "core/static_optimizer.h"
#include "harness.h"
#include "util/ascii_chart.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 50000;

/// One run from a cold cache: comparable runs.
template <typename Exec>
Result<Drained> RunCold(Database* db, Exec* exec, int64_t a1) {
  DYNOPT_RETURN_IF_ERROR(db->pool()->EvictAll());
  return Drain(db, exec, ParamMap{{"A1", Value(a1)}});
}

Status Run(Report* report) {
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
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildTable(&db, spec_t, kRows, 42));
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_age,
                          table->CreateIndex("by_age", {"age"}));

  RetrievalSpec spec;
  spec.table = table;
  spec.restriction =
      Predicate::Compare(1, CompareOp::kGe, Operand::HostVar("A1"));
  spec.projection = {0, 1, 2, 3};

  // Compile-time static choice — :A1 unknown.
  ParamMap compile_time;
  DYNOPT_ASSIGN_OR_RETURN(StaticPlanChoice blind,
                          ChooseStaticPlan(&db, spec, compile_time));
  std::printf("static-blind compile-time choice: %s\n\n",
              blind.ToString().c_str());

  StaticPlanChoice frozen_index;
  frozen_index.kind = StaticPlanChoice::Kind::kFscan;
  frozen_index.index = by_age;
  StaticPlanChoice frozen_tscan;
  frozen_tscan.kind = StaticPlanChoice::Kind::kTscan;

  DynamicRetrieval engine(&db, spec);

  std::printf("%6s %8s | %12s %12s %12s %12s %12s | %s\n", "A1", "rows",
              "dynamic", "static-blind", "frozen-index", "frozen-tscan",
              "oracle", "dynamic vs oracle");
  const CostWeights& w = db.cost_weights();
  std::vector<double> dyn_curve, oracle_curve;
  // Each sweep point's drained row counts, checked once every figure is
  // recorded: the naive oracle charges the meter the report reads.
  std::vector<std::pair<int64_t, std::vector<uint64_t>>> drained;
  for (int64_t a1 :
       std::vector<int64_t>{0, 10, 25, 50, 75, 90, 95, 98, 99, 100, 200}) {
    DYNOPT_ASSIGN_OR_RETURN(Drained dyn, RunCold(&db, &engine, a1));
    StaticRetrieval blind_exec(&db, spec, blind);
    DYNOPT_ASSIGN_OR_RETURN(Drained blind_run, RunCold(&db, &blind_exec, a1));
    StaticRetrieval fidx_exec(&db, spec, frozen_index);
    DYNOPT_ASSIGN_OR_RETURN(Drained fidx, RunCold(&db, &fidx_exec, a1));
    StaticRetrieval ftsc_exec(&db, spec, frozen_tscan);
    DYNOPT_ASSIGN_OR_RETURN(Drained ftsc, RunCold(&db, &ftsc_exec, a1));
    double dyn_cost = dyn.meter.Cost(w);
    double blind_cost = blind_run.meter.Cost(w);
    double oracle = std::min(fidx.meter.Cost(w), ftsc.meter.Cost(w));
    dyn_curve.push_back(dyn_cost);
    oracle_curve.push_back(oracle);
    std::printf("%6lld %8llu | %12.0f %12.0f %12.0f %12.0f %12.0f | %6.2fx\n",
                static_cast<long long>(a1),
                static_cast<unsigned long long>(dyn.rows), dyn_cost,
                blind_cost, fidx.meter.Cost(w), ftsc.meter.Cost(w), oracle,
                dyn_cost / std::max(oracle, 1.0));
    std::string k = "a1_" + std::to_string(a1);
    report->Add(k + ".dynamic_cost", dyn_cost);
    report->Add(k + ".static_blind_cost", blind_cost);
    report->Add(k + ".oracle_cost", oracle);
    report->Add(k + ".dynamic_vs_oracle", dyn_cost / std::max(oracle, 1.0));
    drained.push_back(
        {a1, {dyn.rows, blind_run.rows, fidx.rows, ftsc.rows}});
  }
  report->AddMeter("meter", db.meter());
  std::printf("\n  dynamic cost over the sweep: %s\n",
              Sparkline(dyn_curve).c_str());
  std::printf("  oracle  cost over the sweep: %s\n",
              Sparkline(oracle_curve).c_str());
  std::printf(
      "\nExpected shape: frozen-index explodes at small :A1, frozen-tscan\n"
      "is flat; static-blind is stuck with one of those rows; dynamic\n"
      "tracks the oracle within a small overhead factor and collapses to\n"
      "near-zero on the empty run (:A1 >= 100).\n");
  for (const auto& [a1, rows] : drained) {
    DYNOPT_RETURN_IF_ERROR(CheckRowCounts(
        report, spec, ParamMap{{"A1", Value(a1)}},
        "A1=" + std::to_string(a1), rows));
  }
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("host_variable");
  return report.Finish(dynopt::Run(&report));
}
