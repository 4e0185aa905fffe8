// Execution-cost distributions (§3).
//
// The paper's central empirical claim is that plan costs are dominated by
// L-shaped distributions — well modeled by truncated hyperbolas: half the
// probability sits in a tiny low-cost region, the other half is spread over
// a long expensive tail. The competition arithmetic consumes distributions
// through this small interface so analytic hyperbolas, empirical
// measurement vectors, and anything else plug in interchangeably.

#ifndef DYNOPT_COMPETITION_COST_DIST_H_
#define DYNOPT_COMPETITION_COST_DIST_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace dynopt {

class CostDistribution {
 public:
  virtual ~CostDistribution() = default;

  virtual double Mean() const = 0;
  /// P(X <= x).
  virtual double Cdf(double x) const = 0;
  /// Smallest x with Cdf(x) >= p.
  virtual double Quantile(double p) const = 0;
  /// E[X | X <= x]; 0 when Cdf(x) == 0.
  virtual double MeanBelow(double x) const = 0;
  virtual double Sample(Rng& rng) const = 0;
  /// Upper end of the support.
  virtual double MaxCost() const = 0;
};

/// Truncated hyperbola on [0, cmax]: density a/(x+b), a = 1/ln((cmax+b)/b).
/// Small b relative to cmax gives the paper's heavy L-shape (the median sits
/// far below the mean).
class TruncatedHyperbolaCost final : public CostDistribution {
 public:
  TruncatedHyperbolaCost(double b, double cmax);

  double Mean() const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double MeanBelow(double x) const override;
  double Sample(Rng& rng) const override;
  double MaxCost() const override { return cmax_; }

  double b() const { return b_; }

 private:
  double b_;
  double cmax_;
  double a_;  // normalization
};

/// Distribution backed by observed samples (used to feed measured engine
/// costs back into the competition calculus, and in tests as an oracle).
class EmpiricalCost final : public CostDistribution {
 public:
  explicit EmpiricalCost(std::vector<double> samples);

  double Mean() const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double MeanBelow(double x) const override;
  double Sample(Rng& rng) const override;
  double MaxCost() const override;

  size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
  std::vector<double> prefix_sum_;  // prefix_sum_[i] = sum of first i values
};

/// The b parameter of a TruncatedHyperbolaCost on [0, cmax] whose Mean()
/// equals `mean` (bisection; mean is clamped into the hyperbola's feasible
/// range (0, cmax/2)). Lets a measured mean be re-expressed as an analytic
/// L-shaped prior before narrowing (the §7 index-only settle in
/// core/retrieval.cc).
double FitHyperbolaToMean(double mean, double cmax);

}  // namespace dynopt

#endif  // DYNOPT_COMPETITION_COST_DIST_H_
