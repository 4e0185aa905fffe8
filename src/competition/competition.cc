#include "competition/competition.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dynopt {

double DirectCompetition::ExpectedSingleBest() const {
  return std::min(a1_->Mean(), a2_->Mean());
}

double DirectCompetition::ExpectedProbeThenSwitch(double budget2) const {
  double p = a2_->Cdf(budget2);
  double m2 = a2_->MeanBelow(budget2);
  return p * m2 + (1.0 - p) * (budget2 + a1_->Mean());
}

double DirectCompetition::RaceCost(double w1, double w2,
                                   const CompetitionPolicy& p) {
  double alpha = std::clamp(p.alpha, 0.0, 1.0);
  // Degenerate speeds: all effort on one plan.
  if (alpha <= 0.0) return w1;
  if (alpha >= 1.0) {
    // Pure probe: A1 makes no progress during the race.
    return w2 <= p.budget2 ? w2 : p.budget2 + w1;
  }
  double t2 = w2 / alpha;               // total cost when A2 completes
  double t1 = w1 / (1.0 - alpha);       // total cost when A1 completes
  double tb = p.budget2 / alpha;        // total cost at A2's budget wall
  if (t2 <= t1 && t2 <= tb) return t2;
  if (t1 <= t2 && t1 <= tb) return t1;
  // A2 abandoned at the wall; A1 keeps its concurrent progress.
  double a1_done = (1.0 - alpha) * tb;
  return tb + (w1 - a1_done);
}

double DirectCompetition::ExpectedSimultaneous(const CompetitionPolicy& policy,
                                               int grid) const {
  // Quantile-grid quadrature: E ≈ mean over the product of mid-quantiles.
  double total = 0.0;
  for (int i = 0; i < grid; ++i) {
    double w1 = a1_->Quantile((i + 0.5) / grid);
    for (int j = 0; j < grid; ++j) {
      double w2 = a2_->Quantile((j + 0.5) / grid);
      total += RaceCost(w1, w2, policy);
    }
  }
  return total / (static_cast<double>(grid) * grid);
}

DirectCompetitionResult DirectCompetition::Optimize(int grid) const {
  DirectCompetitionResult r;
  r.single_best = ExpectedSingleBest();

  r.best_probe = std::numeric_limits<double>::infinity();
  double cmax2 = a2_->MaxCost();
  for (int i = 1; i <= grid; ++i) {
    // Budgets swept on the quantile scale: the interesting region is the
    // low-cost concentration, which a linear sweep would skip over.
    double budget = a2_->Quantile(static_cast<double>(i) / grid);
    double cost = ExpectedProbeThenSwitch(budget);
    if (cost < r.best_probe) {
      r.best_probe = cost;
      r.best_probe_budget = budget;
    }
  }
  // Also consider "never probe" (budget 0) and "run A2 fully".
  if (r.single_best < r.best_probe) {
    double full = ExpectedProbeThenSwitch(cmax2);
    if (full < r.single_best) {
      r.best_probe = full;
      r.best_probe_budget = cmax2;
    }
  }

  r.best_simultaneous = std::numeric_limits<double>::infinity();
  for (int ai = 1; ai < grid; ++ai) {
    CompetitionPolicy p;
    p.alpha = static_cast<double>(ai) / grid;
    for (int bi = 1; bi <= grid; ++bi) {
      p.budget2 = a2_->Quantile(static_cast<double>(bi) / grid);
      double cost = ExpectedSimultaneous(p, 64);
      if (cost < r.best_simultaneous) {
        r.best_simultaneous = cost;
        r.best_alpha = p.alpha;
        r.best_sim_budget = p.budget2;
      }
    }
  }
  return r;
}

double DirectCompetition::SimulatePolicy(const CompetitionPolicy& policy,
                                         Rng& rng, int trials) const {
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    total += RaceCost(a1_->Sample(rng), a2_->Sample(rng), policy);
  }
  return total / trials;
}

double TwoStageCompetition::ExpectedStatic() const {
  return std::min(alternative_mean_, stage1_cost_ + stage2_->Mean());
}

double TwoStageCompetition::ExpectedDynamic(double theta, int grid) const {
  double threshold = theta * alternative_mean_;
  double total = 0.0;
  for (int i = 0; i < grid; ++i) {
    double x2 = stage2_->Quantile((i + 0.5) / grid);
    total += x2 < threshold ? x2 : alternative_mean_;
  }
  return stage1_cost_ + total / grid;
}

double TwoStageCompetition::SimulateDynamic(double theta, Rng& rng,
                                            int trials) const {
  double threshold = theta * alternative_mean_;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    double x2 = stage2_->Sample(rng);
    total += stage1_cost_ + (x2 < threshold ? x2 : alternative_mean_);
  }
  return total / trials;
}

}  // namespace dynopt
