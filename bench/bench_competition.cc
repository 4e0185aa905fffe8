// Reproduces the §3 competition-model arithmetic:
//
//  * the direct-competition example — with L-shaped (truncated-hyperbola)
//    costs, running the challenger A2 to a budget c2 and then switching
//    costs (m2 + c2 + M1)/2, "about twice smaller than the traditional
//    M1";
//  * the "still better approach": simultaneous proportional-speed runs,
//    swept over speed ratios and budgets;
//  * the two-stage competition — a cheap first stage revealing the second
//    stage's exact cost (Jscan's situation) — including the 95% safety
//    threshold's negligible cost.
//
// Every quadrature expectation is cross-checked by Monte-Carlo simulation.

#include <cstdio>
#include <vector>

#include "competition/competition.h"
#include "competition/cost_dist.h"
#include "harness.h"
#include "util/ascii_chart.h"
#include "util/rng.h"

namespace dynopt {
namespace {

void DirectSection(Report* report) {
  std::printf("=== Direct competition (§3) ===\n");
  // Two heavy L-shapes: 50%% of mass sits below ~3 cost units while the
  // means are in the hundreds (b << cmax).
  TruncatedHyperbolaCost a1(0.05, 2000.0);
  TruncatedHyperbolaCost a2(0.05, 3000.0);
  DirectCompetition comp(&a1, &a2);
  Rng rng(7);

  double m1 = a1.Mean();
  double c2 = a2.Quantile(0.5);
  double m2 = a2.MeanBelow(c2);
  std::printf("M1 (traditional single-best) = %.1f, M2 = %.1f\n", m1,
              a2.Mean());
  std::printf("c2 (A2 median) = %.2f, m2 = E[X2|X2<=c2] = %.2f\n", c2, m2);
  report->Print("direct.paper_formula", (m2 + c2 + m1) / 2.0,
                "paper formula (m2 + c2 + M1)/2        = %.1f");
  report->Print("direct.probe_then_switch_quad",
                comp.ExpectedProbeThenSwitch(c2),
                "probe-then-switch expectation (quad)  = %.1f");
  CompetitionPolicy probe{1.0, c2};
  std::printf("probe-then-switch expectation (MC)    = %.1f\n",
              comp.SimulatePolicy(probe, rng, 200000));
  std::printf("improvement over single best          = %.2fx\n\n",
              comp.ExpectedSingleBest() / comp.ExpectedProbeThenSwitch(c2));

  std::printf("--- budget sweep: probe-then-switch E[cost] by A2 budget "
              "quantile ---\n");
  std::printf("%10s %12s %12s\n", "quantile", "budget", "E[cost]");
  std::vector<double> sweep;
  for (int q = 1; q <= 19; ++q) {
    double budget = a2.Quantile(q / 20.0);
    double cost = comp.ExpectedProbeThenSwitch(budget);
    sweep.push_back(cost);
    std::printf("%10.2f %12.2f %12.1f\n", q / 20.0, budget, cost);
  }
  std::printf("  E[cost] curve: %s  (single-best = %.1f)\n\n",
              Sparkline(sweep).c_str(), comp.ExpectedSingleBest());

  std::printf("--- simultaneous proportional-speed race: E[cost] by alpha "
              "(A2's speed share), budget at A2's 60%% quantile ---\n");
  std::printf("%8s %12s %12s\n", "alpha", "E[cost] quad", "E[cost] MC");
  double budget = a2.Quantile(0.6);
  for (double alpha : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    CompetitionPolicy p{alpha, budget};
    std::printf("%8.2f %12.1f %12.1f\n", alpha,
                comp.ExpectedSimultaneous(p, 256),
                comp.SimulatePolicy(p, rng, 100000));
  }

  auto best = comp.Optimize(24);
  std::printf("\noptimized arrangements:\n");
  std::printf("  single best (traditional): %10.1f\n", best.single_best);
  std::printf("  best probe-then-switch:    %10.1f  (budget %.2f)\n",
              best.best_probe, best.best_probe_budget);
  std::printf("  best simultaneous race:    %10.1f  (alpha %.2f, budget "
              "%.2f)\n",
              best.best_simultaneous, best.best_alpha, best.best_sim_budget);
  std::printf("  competition advantage:     %10.2fx\n\n",
              best.single_best / best.best_simultaneous);
  report->Add("direct.single_best", best.single_best);
  report->Add("direct.best_probe", best.best_probe);
  report->Add("direct.best_simultaneous", best.best_simultaneous);
  report->Add("direct.advantage", best.single_best / best.best_simultaneous);
}

void TwoStageSection(Report* report) {
  std::printf("=== Two-stage competition (§3/§6) ===\n");
  std::printf(
      "A2 = cheap stage-1 (the index scan) + stage-2 whose exact cost is\n"
      "revealed during stage-1 (the RID-list retrieval); A1 = guaranteed\n"
      "alternative with mean M1. Dynamic = keep A2 iff revealed X2 < "
      "theta*M1.\n\n");

  std::printf("%10s %12s %12s %12s %10s\n", "M1", "static", "dynamic",
              "dynamic MC", "advantage");
  Rng rng(11);
  TruncatedHyperbolaCost stage2(0.05, 5000.0);
  for (double m1_factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    double m1 = stage2.Mean() * m1_factor;
    TwoStageCompetition ts(m1 * 0.01, &stage2, m1);
    double st = ts.ExpectedStatic();
    double dy = ts.ExpectedDynamic(0.95);
    std::printf("%10.1f %12.1f %12.1f %12.1f %9.2fx\n", m1, st, dy,
                ts.SimulateDynamic(0.95, rng, 100000), st / dy);
    char key[48];
    std::snprintf(key, sizeof(key), "two_stage.m1x%g.advantage", m1_factor);
    report->Add(key, st / dy);
  }

  std::printf("\n--- the 95%% early-termination margin costs almost "
              "nothing ---\n");
  TruncatedHyperbolaCost s2(0.05, 2000.0);
  TwoStageCompetition ts(2.0, &s2, 200.0);
  std::printf("%8s %12s\n", "theta", "E[cost]");
  for (double theta : {0.5, 0.8, 0.9, 0.95, 1.0}) {
    std::printf("%8.2f %12.2f\n", theta, ts.ExpectedDynamic(theta));
  }
}

}  // namespace
}  // namespace dynopt

int main() {
  dynopt::Report report("competition");
  dynopt::DirectSection(&report);
  dynopt::TwoStageSection(&report);
  return report.Finish();
}
