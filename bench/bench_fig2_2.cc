// Reproduces Figure 2.2: degradation of certainty. A tight estimation
// bell (mean 0.2, error 0.005) is pushed through AND/OR chains under the
// unknown-correlation assumption; each operator multiplies the spread
// until L-shapes emerge — the paper's statements (1)-(3) in §2.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "stats/selectivity_dist.h"
#include "util/ascii_chart.h"

namespace dynopt {
namespace {

constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();

void Run(Report* report) {
  std::printf("=== Figure 2.2: Degradation of Certainty ===\n");
  std::printf(
      "Chains applied to an estimation bell p_X with mean m=0.2 and error\n"
      "e=0.005, unknown correlation. The paper's processes to observe:\n"
      " (1) one AND/OR nullifies precision relative to the interval end;\n"
      " (2) repeated ORs spread the bell toward the center, then flip it\n"
      "     into an L-shape at the far end;\n"
      " (3) AND chains produce L-shapes of growing skew.\n\n");

  auto bell = SelectivityDist::Bell(0.2, 0.005);

  const std::vector<std::pair<std::string, std::string>> chains = {
      {"X (the estimate itself)", ""},
      {"&X", "&"},
      {"|X", "|"},
      {"&&X", "&&"},
      {"||X", "||"},
      {"|||X", "|||"},
      {"&&&X", "&&&"},
      {"|||||&X", "|||||&"},
  };

  std::printf("%-26s %8s %8s %10s %10s\n", "chain", "mean", "stddev",
              "P(s<=0.1)", "P(s>=0.9)");
  std::vector<std::pair<std::string, SelectivityDist>> results;
  for (const auto& [label, chain] : chains) {
    auto dist = chain.empty() ? bell : ApplyOpChain(bell, chain, kUnknown);
    std::printf("%-26s %8.4f %8.4f %10.4f %10.4f\n", label.c_str(),
                dist.Mean(), dist.StdDev(), dist.CdfAt(0.1),
                1.0 - dist.CdfAt(0.9 - 1e-9));
    results.emplace_back(label, std::move(dist));
  }
  std::printf("\n");

  for (const auto& [label, dist] : results) {
    auto curve = Downsample(dist.DensityCurve(), 64);
    std::printf("%s\n", AsciiAreaChart(curve, 6, label).c_str());
  }

  // The quantified headline: one operator application inflates the spread
  // by more than an order of magnitude.
  double e0 = results[0].second.StdDev();
  double e1 = results[1].second.StdDev();
  std::printf("precision loss from a single AND: stddev %.4f -> %.4f "
              "(x%.0f)\n",
              e0, e1, e1 / e0);

  report->Add("stddev.X", e0);
  report->Add("stddev.andX", e1);
  report->Add("single_and_spread_factor", e1 / e0);
  for (const auto& [label, dist] : results) {
    if (label == "&&&X" || label == "|||X") {
      report->Add("stddev." + label, dist.StdDev());
    }
  }

  std::printf("\n--- CSV (s, then one density column per chain) ---\n");
  std::printf("s");
  for (const auto& [label, dist] : results) std::printf(",%s", label.c_str());
  std::printf("\n");
  const int step = SelectivityDist::kBins / 64;
  for (int i = 0; i < SelectivityDist::kBins; i += step) {
    std::printf("%.4f", (i + 0.5) / SelectivityDist::kBins);
    for (const auto& [label, dist] : results) {
      std::printf(",%.4f", dist.DensityAt(i));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("fig2_2");
  dynopt::Run(&report);
  return report.Finish();
}
