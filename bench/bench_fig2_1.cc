// Reproduces Figure 2.1: transformation of uniform selectivity
// distributions under AND/OR chains and correlation assumptions, plus the
// §2 truncated-hyperbola fit errors (~1/4 for &X, ~1/7 for &&X, ~1/23 for
// &&&X).
//
// Output: one ASCII density chart per curve (the figure's panels), a CSV
// block of the density series for external plotting, and a fit-error table
// against the paper's reported values.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "stats/hyperbola.h"
#include "stats/selectivity_dist.h"
#include "util/ascii_chart.h"

namespace dynopt {
namespace {

constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();

struct Curve {
  std::string label;
  std::string chain;
  double corr;  // NaN = unknown-correlation mixture
};

void Run(Report* report) {
  std::printf("=== Figure 2.1: Transformation of Uniform Distributions ===\n");
  std::printf(
      "Selectivity densities for Boolean chains over predicates with\n"
      "uniform selectivity, under correlation assumptions +1 / 0 / -0.9 /\n"
      "unknown (uniform mixture over c in [-1,+1]).\n\n");

  const std::vector<Curve> curves = {
      {"&(+1)X  (triangle)", "&", 1.0},
      {"&(0)X   (crescent)", "&", 0.0},
      {"&(-0.9)X", "&", -0.9},
      {"&X (unknown corr)", "&", kUnknown},
      {"&&X", "&&", kUnknown},
      {"&&&X", "&&&", kUnknown},
      {"|X", "|", kUnknown},
      {"||X", "||", kUnknown},
      {"&|X (balanced mix)", "&|", kUnknown},
      {"|&X (balanced mix)", "|&", kUnknown},
  };

  auto uniform = SelectivityDist::Uniform();
  std::vector<std::pair<std::string, SelectivityDist>> results;
  for (const Curve& c : curves) {
    results.emplace_back(c.label, ApplyOpChain(uniform, c.chain, c.corr));
  }

  for (const auto& [label, dist] : results) {
    auto curve = Downsample(dist.DensityCurve(), 64);
    std::printf("%s\n", AsciiAreaChart(curve, 6, label).c_str());
    std::printf(
        "  mean=%.3f stddev=%.3f  P(s<=0.1)=%.3f P(s>=0.9)=%.3f\n\n",
        dist.Mean(), dist.StdDev(), dist.CdfAt(0.1),
        1.0 - dist.CdfAt(0.9 - 1e-9));
  }

  // Hyperbola fits (the §2 quantitative claim).
  std::printf("--- Truncated-hyperbola fit quality (paper: &X ~ 1/4 = 0.25, "
              "&&X ~ 1/7 = 0.143, &&&X ~ 1/23 = 0.043) ---\n");
  std::vector<std::vector<std::string>> rows;
  struct FitCase {
    const char* label;
    const char* chain;
    double paper;
  };
  for (const FitCase& fc : std::vector<FitCase>{{"&X", "&", 1.0 / 4},
                                                {"&&X", "&&", 1.0 / 7},
                                                {"&&&X", "&&&", 1.0 / 23}}) {
    auto dist = ApplyOpChain(uniform, fc.chain, kUnknown);
    auto norm = FitHyperbola(dist);
    auto free = FitHyperbolaFree(dist);
    char n1[32], n2[32], n3[32];
    std::snprintf(n1, sizeof(n1), "%.3f", fc.paper);
    std::snprintf(n2, sizeof(n2), "%.3f", norm.relative_error);
    std::snprintf(n3, sizeof(n3), "%.3f", free.relative_error);
    rows.push_back({fc.label, n1, n2, n3});
    std::string chain(fc.chain);
    report->Add(chain + ".paper_err", fc.paper);
    report->Add(chain + ".normalized_fit_err", norm.relative_error);
    report->Add(chain + ".free_fit_err", free.relative_error);
  }
  std::printf("%s\n",
              FormatTable({"chain", "paper_err", "normalized_fit_err",
                           "free_fit_err"},
                          rows)
                  .c_str());

  // CSV for external plotting.
  std::printf("--- CSV (s, then one density column per curve) ---\n");
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
  dynopt::Report report("fig2_1");
  dynopt::Run(&report);
  return report.Finish();
}
