// Reproduces Figure 5 and the §5 estimation comparison.
//
// Part 1 — the worked example: descent to a split node on a real B-tree,
// reporting split level l, spanning children k, average fanout f and the
// estimate k*f^(l-1) against the true range count.
//
// Part 2 — estimator shoot-out across range widths and data shapes:
//   split-node   O(height) I/O, always fresh, exact for small ranges;
//   histogram    full-table rebuild cost, stale-able, blind below bucket
//                granularity;
//   sampling     ranked [Ant92] vs acceptance/rejection [OlRo89], able to
//                estimate non-sargable residuals.

#include <cmath>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "harness.h"
#include "stats/estimator.h"
#include "util/ascii_chart.h"
#include "workload/workload.h"

namespace dynopt {
namespace {

Status WorkedExample(Report* report) {
  std::printf("=== Figure 5: estimation by descent to a split node ===\n");
  Database db(DatabaseOptions{.pool_pages = 4096});
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildFamilies(&db, 100000));
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * idx,
                          table->CreateIndex("by_age", {"age"}));
  BTree* tree = idx->tree();
  std::printf("index: %llu entries, height %u, avg fanout %.1f\n\n",
              static_cast<unsigned long long>(tree->entry_count()),
              tree->height(), tree->AvgFanout());

  std::printf("%16s %6s %4s %10s %12s %12s %8s %7s\n", "range(age)", "lvl",
              "k", "fanout", "estimate", "true", "ratio", "pages");
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {30, 32}, {30, 30}, {0, 99}, {10, 60}, {95, 99}, {150, 160}}) {
    DYNOPT_ASSIGN_OR_RETURN(
        EncodedRange range,
        ExtractRange(Predicate::Between(1, Operand::Literal(Value(lo)),
                                        Operand::Literal(Value(hi))),
                     1, ParamMap()));
    DYNOPT_ASSIGN_OR_RETURN(auto est, tree->EstimateRange(range));
    DYNOPT_ASSIGN_OR_RETURN(uint64_t truth, tree->CountRange(range));
    double t = static_cast<double>(truth);
    char label[32];
    std::snprintf(label, sizeof(label), "[%lld:%lld]",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    std::printf("%16s %6u %4llu %10.1f %12.0f %12.0f %8.2f %7llu%s\n", label,
                est.split_level, static_cast<unsigned long long>(est.k),
                est.fanout_used, est.estimated_rids, t,
                t > 0 ? est.estimated_rids / t : est.estimated_rids,
                static_cast<unsigned long long>(est.descent_pages),
                est.exact ? "  (exact: leaf-resolved)" : "");
    std::string k =
        "descent.age_" + std::to_string(lo) + "_" + std::to_string(hi);
    report->Add(k + ".estimate", est.estimated_rids);
    report->Add(k + ".true", t);
    report->Add(k + ".pages", static_cast<double>(est.descent_pages));
  }
  std::printf("\n");
  return Status::OK();
}

Status ShootOut(Report* report) {
  std::printf("=== §5 estimator comparison (100k rows, uniform ages 0-99 "
              "plus a planted 3-value hot cluster) ===\n");
  Database db(DatabaseOptions{.pool_pages = 4096});
  DYNOPT_ASSIGN_OR_RETURN(Table * table, BuildFamilies(&db, 100000));
  // Plant a dense below-granularity cluster at income 77777.
  for (int i = 0; i < 2000; ++i) {
    DYNOPT_RETURN_IF_ERROR(
        table
            ->Insert(Record{int64_t{100000 + i}, int64_t{50}, int64_t{77777},
                            std::string("hot")})
            .status());
  }
  DYNOPT_ASSIGN_OR_RETURN(SecondaryIndex * idx,
                          table->CreateIndex("by_income", {"income"}));
  BTree* tree = idx->tree();

  // Histogram build cost (the §5 criticism: full rescans).
  CostMeter before = db.meter();
  DYNOPT_ASSIGN_OR_RETURN(auto hist, EquiWidthHistogram::Build(table, 2, 100));
  double hist_build_cost = (db.meter() - before).Cost(db.cost_weights());
  report->Print("histogram.build_cost", hist_build_cost,
                "histogram: 100 buckets, build cost = %.0f units "
                "(two full table scans)\n");

  ParamMap none;
  auto residual_true = Predicate::True();
  std::printf("%22s %12s | %12s %8s | %12s %8s | %12s %8s\n", "income range",
              "true", "split-node", "cost", "histogram", "cost", "sampling",
              "cost");
  Rng rng(3);
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 199999},         // everything
           {0, 49999},          // quarter
           {100000, 102000},    // 1%
           {77777, 77777},      // the hot cluster: below histogram granularity
           {123456, 123466},    // a tiny cold range
       }) {
    auto p = Predicate::Between(2, Operand::Literal(Value(lo)),
                                Operand::Literal(Value(hi)));
    DYNOPT_ASSIGN_OR_RETURN(EncodedRange range, ExtractRange(p, 2, none));
    DYNOPT_ASSIGN_OR_RETURN(uint64_t count, tree->CountRange(range));
    double truth = static_cast<double>(count);

    before = db.meter();
    DYNOPT_ASSIGN_OR_RETURN(auto split, tree->EstimateRange(range));
    double split_cost = (db.meter() - before).Cost(db.cost_weights());

    before = db.meter();
    DYNOPT_ASSIGN_OR_RETURN(double h,
                            hist.EstimateRange(Value(lo), Value(hi)));
    double h_cost = (db.meter() - before).Cost(db.cost_weights());

    before = db.meter();
    DYNOPT_ASSIGN_OR_RETURN(
        auto samp, SampleEstimateRange(idx, range, residual_true, none, 100,
                                       SamplingMethod::kRanked, rng));
    double samp_cost = (db.meter() - before).Cost(db.cost_weights());

    char label[40];
    std::snprintf(label, sizeof(label), "[%lld:%lld]",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    std::printf("%22s %12.0f | %12.0f %8.1f | %12.0f %8.1f | %12.0f %8.1f\n",
                label, truth, split.estimated_rids, split_cost, h, h_cost,
                samp.estimated_rids, samp_cost);
    std::string k = "income_" + std::to_string(lo) + "_" + std::to_string(hi);
    report->Add(k + ".true", truth);
    report->Add(k + ".split_estimate", split.estimated_rids);
    report->Add(k + ".split_cost", split_cost);
    report->Add(k + ".histogram_estimate", h);
    report->Add(k + ".sampling_estimate", samp.estimated_rids);
  }
  std::printf("\nNote the planted cluster row: the histogram smears ~2000 "
              "records across its bucket while the descent (exact at the "
              "leaf or one level up) and sampling stay truthful.\n\n");

  // Sampling with non-sargable residuals: what only §5's sampling can do.
  std::printf("--- sampling non-sargable residuals inside income "
              "[0:199999] ---\n");
  std::printf("%28s %12s %12s %10s %10s\n", "residual", "true", "ranked est",
              "trials", "AR trials");
  for (auto [label, residual, truth_fraction] :
       std::vector<std::tuple<const char*, PredicateRef, double>>{
           {"income % 10 == 0", Predicate::Mod(2, 10, 0), 0.1},
           {"income % 2 == 0", Predicate::Mod(2, 2, 0), 0.5}}) {
    DYNOPT_ASSIGN_OR_RETURN(
        EncodedRange range,
        ExtractRange(
            Predicate::Between(2, Operand::Literal(Value(int64_t{0})),
                               Operand::Literal(Value(int64_t{199999}))),
            2, none));
    DYNOPT_ASSIGN_OR_RETURN(
        auto ranked, SampleEstimateRange(idx, range, residual, none, 500,
                                         SamplingMethod::kRanked, rng));
    DYNOPT_ASSIGN_OR_RETURN(
        auto ar, SampleEstimateRange(idx, range, residual, none, 500,
                                     SamplingMethod::kAcceptReject, rng));
    std::printf("%28s %12.0f %12.0f %10llu %10llu\n", label,
                truth_fraction * static_cast<double>(ranked.range_count),
                ranked.estimated_rids,
                static_cast<unsigned long long>(ranked.trials),
                static_cast<unsigned long long>(ar.trials));
  }
  std::printf("\nRanked sampling accepts every trial; acceptance/rejection "
              "[OlRo89] wastes descents — the [Ant92] advantage.\n");
  return Status::OK();
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("estimation");
  dynopt::Status st = dynopt::WorkedExample(&report);
  if (st.ok()) st = dynopt::ShootOut(&report);
  return report.Finish(st);
}
