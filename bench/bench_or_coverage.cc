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

#include <algorithm>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "core/retrieval.h"
#include "obs/bench_report.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

constexpr int64_t kRows = 50000;

void Run() {
  std::printf("=== OR coverage (extension E1): age IN (v1..vk) sweep over "
              "%lld padded rows ===\n\n",
              static_cast<long long>(kRows));
  Database db(DatabaseOptions{.pool_pages = 512});
  auto table = BuildFamilies(&db, kRows, 42, /*payload_bytes=*/300);
  if (!table.ok()) return;
  (*table)->CreateIndex("by_age", {"age"}).ok();

  double tscan_cost = 0;
  {
    // Reference: frozen sequential scan of the same query shape.
    RetrievalSpec spec;
    spec.table = *table;
    spec.restriction = Predicate::True();
    spec.projection = {0};
    tscan_cost = EstimateTscanCost(spec, db.cost_weights());
  }

  BenchReport report("or_coverage");
  report.Add("tscan_cost_estimate", tscan_cost);
  std::printf("%6s %8s | %12s %12s | %10s | %s\n", "k", "rows", "dynamic",
              "tscan-est", "vs tscan", "tactic");
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
    spec.table = *table;
    spec.restriction = Predicate::Or(std::move(branches));
    spec.projection = {0, 1};

    DynamicRetrieval engine(&db, spec);
    db.pool()->EvictAll().ok();
    ParamMap params;
    CostMeter before = db.meter();
    engine.Open(params).ok();
    RowBatch batch;
    uint64_t rows = 0;
    for (;;) {
      auto more = engine.NextBatch(&batch);
      if (!more.ok() || !*more) break;
      rows += batch.num_rows();
    }
    double cost = (db.meter() - before).Cost(db.cost_weights());
    std::printf("%6d %8llu | %12.0f %12.0f | %9.2fx | %s\n", k,
                static_cast<unsigned long long>(rows), cost, tscan_cost,
                tscan_cost / std::max(cost, 1.0),
                std::string(TacticName(engine.tactic())).c_str());
    char key[32];
    std::snprintf(key, sizeof(key), "k%d", k);
    std::string kk(key);
    report.Add(kk + ".dynamic_cost", cost);
    report.Add(kk + ".rows", static_cast<double>(rows));
    report.Add(kk + ".vs_tscan", tscan_cost / std::max(cost, 1.0));
  }
  report.AddMeter("meter", db.meter());
  report.WriteFile();
  std::printf(
      "\nWithout OR coverage every one of these queries is a table scan;\n"
      "with it, narrow IN-lists run orders of magnitude cheaper and the\n"
      "engine still hands wide disjunctions back to the sequential scan.\n");
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Run();
  return 0;
}
