// Extension experiment (E1): OR coverage — §7's named future work
// ("Covering ORs and between-index subexpressions ... is a rich source for
// extending the tactics").
//
// Disjunctive restrictions compile to multi-range index scans instead of
// contributing no range. The sweep grows an IN-list over a padded FAMILIES
// table: small lists are answered by a handful of point descents, large
// lists drive total selectivity up until the engine's competition hands
// the verdict back to the sequential scan — the same crossover discipline
// as the §4 host-variable experiment, now over disjunction width.
//
// Every drain's row count must match the naive oracle's (a row-at-a-time
// Tscan + filter); the bench exits 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "harness.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 50000;

Status Run(Report* report) {
  std::printf("=== OR coverage (extension E1): age IN (v1..vk) sweep over "
              "%lld padded rows ===\n\n",
              static_cast<long long>(kRows));
  Database db(DatabaseOptions{.pool_pages = 512});
  DYNOPT_ASSIGN_OR_RETURN(
      Table * table, BuildFamilies(&db, kRows, 42, /*payload_bytes=*/300));
  DYNOPT_RETURN_IF_ERROR(table->CreateIndex("by_age", {"age"}).status());

  double tscan_cost = 0;
  {
    // Reference: frozen sequential scan of the same query shape.
    RetrievalSpec spec;
    spec.table = table;
    spec.restriction = Predicate::True();
    spec.projection = {0};
    tscan_cost = EstimateTscanCost(spec, db.cost_weights());
  }

  report->Add("tscan_cost_estimate", tscan_cost);
  std::printf("%6s %8s | %12s %12s | %10s | %s\n", "k", "rows", "dynamic",
              "tscan-est", "vs tscan", "tactic");
  // Each width's spec and drained rows, checked once every figure is
  // recorded: the naive oracle charges the meter the report reads.
  std::vector<std::tuple<int, RetrievalSpec, uint64_t>> drained;
  ParamMap params;
  for (int k : {1, 2, 4, 8, 16, 32, 64}) {
    // k distinct ages, spread over the domain (ages repeat past 100 —
    // duplicates merge away in the RangeSet, thinning the effective list).
    std::vector<PredicateRef> branches;
    for (int i = 0; i < k; ++i) {
      branches.push_back(Predicate::Compare(
          1, CompareOp::kEq,
          Operand::Literal(Value(static_cast<int64_t>((i * 37) % 100)))));
    }
    RetrievalSpec spec;
    spec.table = table;
    spec.restriction = Predicate::Or(std::move(branches));
    spec.projection = {0, 1};

    DynamicRetrieval engine(&db, spec);
    DYNOPT_RETURN_IF_ERROR(db.pool()->EvictAll());
    DYNOPT_ASSIGN_OR_RETURN(Drained d, Drain(&db, &engine, params));
    double cost = d.meter.Cost(db.cost_weights());
    std::printf("%6d %8llu | %12.0f %12.0f | %9.2fx | %s\n", k,
                static_cast<unsigned long long>(d.rows), cost, tscan_cost,
                tscan_cost / std::max(cost, 1.0),
                std::string(TacticName(engine.tactic())).c_str());
    std::string kk = "k" + std::to_string(k);
    report->Add(kk + ".dynamic_cost", cost);
    report->Add(kk + ".rows", static_cast<double>(d.rows));
    report->Add(kk + ".vs_tscan", tscan_cost / std::max(cost, 1.0));
    drained.emplace_back(k, spec, d.rows);
  }
  report->AddMeter("meter", db.meter());
  std::printf(
      "\nWithout OR coverage every one of these queries is a table scan;\n"
      "with it, narrow IN-lists run orders of magnitude cheaper and the\n"
      "engine still hands wide disjunctions back to the sequential scan.\n");
  for (const auto& [k, spec, rows] : drained) {
    DYNOPT_RETURN_IF_ERROR(CheckRowCounts(
        report, spec, params, "k=" + std::to_string(k), {rows}));
  }
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("or_coverage");
  return report.Finish(dynopt::Run(&report));
}
