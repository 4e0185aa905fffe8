// §3(c) experiment: cache interference makes retrieval cost an L-shaped
// random variable, and the competition model turns that into policy.
//
// "Even if a single column selectivity is estimated with good precision
// ... the actual cost of index scan and data record fetches measured in
// physical I/Os is often unpredictable because the pattern of caching the
// disk pages is influenced by many asynchronous processes totally
// unrelated to a given retrieval."
//
// Part 1 measures the same indexed retrieval under randomized cache
// interference and reports the cost distribution (the right skew is the
// L-shape's signature). Part 2 feeds the *measured* costs of two
// alternative plans into the §3 direct-competition calculus as
// EmpiricalCost distributions and reports the optimal probe policy — the
// bridge from observed engine behaviour to competition arithmetic.
//
// Every drain's row count must match the naive oracle's (a row-at-a-time
// Tscan + filter); the bench exits 1 otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "competition/competition.h"
#include "core/static_optimizer.h"
#include "harness.h"
#include "util/ascii_chart.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

/// Drains `choice` under whatever cache state the caller left; appends
/// the drained row count to `rows` and returns the metered cost.
Result<double> RunPlan(Database* db, const RetrievalSpec& spec,
                       const StaticPlanChoice& choice, const ParamMap& params,
                       std::vector<uint64_t>* rows) {
  StaticRetrieval exec(db, spec, choice);
  DYNOPT_ASSIGN_OR_RETURN(Drained d, Drain(db, &exec, params));
  rows->push_back(d.rows);
  return d.meter.Cost(db->cost_weights());
}

Status Run(Report* report) {
  std::printf("=== §3(c): cache interference and measured-cost competition "
              "===\n\n");
  Database db(DatabaseOptions{.pool_pages = 1200});
  DYNOPT_ASSIGN_OR_RETURN(
      Table * table, BuildFamilies(&db, 40000, 42, /*payload_bytes=*/150));
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * by_income,
                          table->CreateIndex("by_income", {"income"}));

  RetrievalSpec spec;
  spec.table = table;
  spec.restriction =
      Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                         Operand::Literal(Value(int64_t{8000})));
  spec.projection = {0, 2};
  ParamMap params;

  StaticPlanChoice fscan;
  fscan.kind = StaticPlanChoice::Kind::kFscan;
  fscan.index = by_income;
  StaticPlanChoice tscan;
  tscan.kind = StaticPlanChoice::Kind::kTscan;

  // Every drain's row count, checked once every figure is recorded: the
  // naive oracle charges the meter the report reads.
  std::vector<uint64_t> rows;

  // Part 1: one plan, many cache states.
  Rng rng(17);
  // One drain after random interference. Interference is usually light,
  // occasionally devastating (cubing the uniform draw skews it) — that
  // asymmetry is where the L-shape of the cost distribution comes from.
  auto interfered = [&](const StaticPlanChoice& plan) -> Result<double> {
    double hit = std::pow(rng.NextDouble(), 3.0);
    DYNOPT_RETURN_IF_ERROR(db.pool()->ScrambleCache(rng, hit).status());
    return RunPlan(&db, spec, plan, params, &rows);
  };
  DYNOPT_RETURN_IF_ERROR(
      RunPlan(&db, spec, fscan, params, &rows).status());  // prime
  DYNOPT_ASSIGN_OR_RETURN(double warm,
                          RunPlan(&db, spec, fscan, params, &rows));
  std::vector<double> costs;
  for (int i = 0; i < 60; ++i) {
    DYNOPT_ASSIGN_OR_RETURN(double cost, interfered(fscan));
    costs.push_back(cost);
  }
  std::sort(costs.begin(), costs.end());
  double mean = 0;
  for (double c : costs) mean += c;
  mean /= costs.size();
  double median = Quantile(costs, 0.5);
  double p95 = Quantile(costs, 0.95);
  std::printf("same Fscan, 60 runs under random interference:\n");
  report->Print("interference.warm_cost", warm, "  warm-cache cost %12.0f");
  std::printf("  min / median    %12.0f %12.0f\n", costs.front(), median);
  std::printf("  mean / p95 / max%12.0f %12.0f %12.0f\n", mean, p95,
              costs.back());
  std::printf("  skew (mean/median) = %.2f   sorted costs: %s\n\n",
              mean / median, Sparkline(Downsample(costs, 30)).c_str());
  report->Add("interference.min_cost", costs.front());
  report->Add("interference.median_cost", median);
  report->Add("interference.mean_cost", mean);
  report->Add("interference.p95_cost", p95);
  report->Add("interference.max_cost", costs.back());
  report->Add("interference.skew", mean / median);

  // Part 2: measured costs of two plans -> empirical competition policy.
  std::vector<double> fscan_costs, tscan_costs;
  for (int i = 0; i < 40; ++i) {
    DYNOPT_ASSIGN_OR_RETURN(double f, interfered(fscan));
    fscan_costs.push_back(f);
    DYNOPT_ASSIGN_OR_RETURN(double t, interfered(tscan));
    tscan_costs.push_back(t);
  }
  EmpiricalCost fscan_dist(fscan_costs);
  EmpiricalCost tscan_dist(tscan_costs);
  const CostDistribution* a1 = &fscan_dist;  // lower mean by construction?
  const CostDistribution* a2 = &tscan_dist;
  if (a1->Mean() > a2->Mean()) std::swap(a1, a2);
  DirectCompetition comp(a1, a2);
  auto policy = comp.Optimize(16);
  std::printf("measured plan-cost distributions fed into the §3 model:\n");
  std::printf("  Fscan mean %-10.0f Tscan mean %-10.0f\n", fscan_dist.Mean(),
              tscan_dist.Mean());
  report->Add("empirical.fscan_mean", fscan_dist.Mean());
  report->Add("empirical.tscan_mean", tscan_dist.Mean());
  report->Print("empirical.single_best", policy.single_best,
                "  single best (traditional):  %10.0f");
  std::printf("  best probe-then-switch:     %10.0f (budget %.0f)\n",
              policy.best_probe, policy.best_probe_budget);
  std::printf("  best simultaneous race:     %10.0f (alpha %.2f)\n",
              policy.best_simultaneous, policy.best_alpha);
  report->Add("empirical.best_probe", policy.best_probe);
  report->Add("empirical.best_simultaneous", policy.best_simultaneous);
  report->AddMeter("meter", db.meter());
  std::printf(
      "\nWhen interference keeps plan costs spread, the competition policy\n"
      "undercuts committing to either plan; when the measured spread is\n"
      "tight, Optimize() collapses to (near) single-best — the model only\n"
      "prescribes racing where uncertainty actually lives.\n");
  return CheckRowCounts(report, spec, params, "Fscan/Tscan drain", rows);
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("cache");
  return report.Finish(dynopt::Run(&report));
}
