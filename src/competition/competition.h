// The competition cost model (§3).
//
// Two alternative plans A1 and A2 pursue the same goal. The traditional
// optimizer runs the lower-mean plan to completion, paying M1 = min mean.
// §3 shows better arrangements when costs are L-shaped:
//
//  * probe-then-switch — run A2 up to a budget c2; with probability
//    Cdf2(c2) it finishes (paying E[X2|X2<=c2]), otherwise pay c2 and run
//    A1 from scratch: expected  P·m2 + (1−P)·(c2 + M1),
//    which at P = 1/2, m2 <= c2 << M1 is "about twice smaller than M1".
//  * simultaneous proportional-speed run — both plans advance concurrently
//    (A2 gets a fraction alpha of each cost unit); when A2's budget is
//    exhausted, A1 keeps the progress it already made. probe-then-switch
//    is exactly the alpha = 1 special case.
//
// The two-stage competition models Jscan's situation (§6): plan A2 is a
// cheap first stage (the index scan) that reveals the exact cost of its
// second stage (the RID-list retrieval); after stage 1 the engine keeps A2
// iff the revealed cost beats the guaranteed alternative, with a safety
// factor theta (the paper terminates "a bit before the costs are
// equalized", e.g. at 95%).
//
// All expectations are computed two ways — quantile-grid quadrature and
// Monte-Carlo simulation — and the tests require them to agree.

#ifndef DYNOPT_COMPETITION_COMPETITION_H_
#define DYNOPT_COMPETITION_COMPETITION_H_

#include "competition/cost_dist.h"
#include "util/rng.h"

namespace dynopt {

struct CompetitionPolicy {
  double alpha = 1.0;    // fraction of effort given to A2 during the race
  double budget2 = 0.0;  // A2 cost budget before abandoning it
};

struct DirectCompetitionResult {
  double single_best = 0;        // the traditional optimizer's expectation
  double best_probe = 0;         // best probe-then-switch expectation
  double best_probe_budget = 0;
  double best_simultaneous = 0;  // best proportional-speed expectation
  double best_alpha = 0;
  double best_sim_budget = 0;
};

class DirectCompetition {
 public:
  /// Neither distribution is owned. By convention A1 is the plan the
  /// traditional optimizer would pick (lower mean) and A2 the challenger.
  DirectCompetition(const CostDistribution* a1, const CostDistribution* a2)
      : a1_(a1), a2_(a2) {}

  /// min(M1, M2): run the lower-mean plan to completion.
  double ExpectedSingleBest() const;

  /// Paper formula: Cdf2(c2)·E[X2|X2<=c2] + (1−Cdf2(c2))·(c2 + M1).
  double ExpectedProbeThenSwitch(double budget2) const;

  /// Proportional-speed race with A2 abandoned at `budget2` of its own
  /// accrued cost; A1's concurrent progress is retained. Quadrature over a
  /// quantile grid of both distributions.
  double ExpectedSimultaneous(const CompetitionPolicy& policy,
                              int grid = 256) const;

  /// Grid search over budgets (and speed ratios) for the best arrangements.
  DirectCompetitionResult Optimize(int grid = 32) const;

  /// Monte-Carlo estimate of the same policy (validation path).
  double SimulatePolicy(const CompetitionPolicy& policy, Rng& rng,
                        int trials = 100000) const;

  /// Cost of one concrete race given drawn plan works w1, w2.
  static double RaceCost(double w1, double w2, const CompetitionPolicy& p);

 private:
  const CostDistribution* a1_;
  const CostDistribution* a2_;
};

class TwoStageCompetition {
 public:
  /// A2 = fixed `stage1_cost` + a second stage drawn from `stage2`, whose
  /// exact value is revealed by running stage 1. A1 has mean
  /// `alternative_mean` (the "guaranteed best" of §6).
  TwoStageCompetition(double stage1_cost, const CostDistribution* stage2,
                      double alternative_mean)
      : stage1_cost_(stage1_cost),
        stage2_(stage2),
        alternative_mean_(alternative_mean) {}

  /// Static choice: min(M1, s1 + E[X2]).
  double ExpectedStatic() const;

  /// Dynamic: pay s1, observe X2, keep A2 iff X2 < theta·M1 (else switch
  /// and pay M1). theta < 1 is the paper's early-termination safety margin.
  double ExpectedDynamic(double theta = 0.95, int grid = 4096) const;

  /// Monte-Carlo validation of ExpectedDynamic.
  double SimulateDynamic(double theta, Rng& rng, int trials = 100000) const;

 private:
  double stage1_cost_;
  const CostDistribution* stage2_;
  double alternative_mean_;
};

}  // namespace dynopt

#endif  // DYNOPT_COMPETITION_COMPETITION_H_
