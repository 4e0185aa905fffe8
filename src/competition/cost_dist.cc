#include "competition/cost_dist.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dynopt {

TruncatedHyperbolaCost::TruncatedHyperbolaCost(double b, double cmax)
    : b_(b), cmax_(cmax) {
  assert(b > 0 && cmax > 0);
  a_ = 1.0 / std::log((cmax_ + b_) / b_);
}

double TruncatedHyperbolaCost::Mean() const {
  // ∫ x·a/(x+b) dx over [0,cmax] = a·cmax − b (using a·ln((cmax+b)/b) = 1).
  return a_ * cmax_ - b_;
}

double TruncatedHyperbolaCost::Cdf(double x) const {
  if (x <= 0) return 0.0;
  if (x >= cmax_) return 1.0;
  return a_ * std::log((x + b_) / b_);
}

double TruncatedHyperbolaCost::Quantile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  return std::min(cmax_, b_ * (std::exp(p / a_) - 1.0));
}

double TruncatedHyperbolaCost::MeanBelow(double x) const {
  double c = Cdf(x);
  if (c <= 0.0) return 0.0;
  x = std::min(x, cmax_);
  // ∫0^x t·a/(t+b) dt = a·x − b·Cdf(x).
  return (a_ * x - b_ * c) / c;
}

double TruncatedHyperbolaCost::Sample(Rng& rng) const {
  return Quantile(rng.NextDouble());
}

EmpiricalCost::EmpiricalCost(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  assert(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
  prefix_sum_.resize(sorted_.size() + 1, 0.0);
  for (size_t i = 0; i < sorted_.size(); ++i) {
    prefix_sum_[i + 1] = prefix_sum_[i] + sorted_[i];
  }
}

double EmpiricalCost::Mean() const {
  return prefix_sum_.back() / static_cast<double>(sorted_.size());
}

double EmpiricalCost::Cdf(double x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCost::Quantile(double p) const {
  p = std::clamp(p, 0.0, 1.0);
  size_t idx = static_cast<size_t>(std::ceil(p * sorted_.size()));
  if (idx == 0) idx = 1;
  return sorted_[std::min(idx - 1, sorted_.size() - 1)];
}

double EmpiricalCost::MeanBelow(double x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  size_t n = it - sorted_.begin();
  if (n == 0) return 0.0;
  return prefix_sum_[n] / static_cast<double>(n);
}

double EmpiricalCost::Sample(Rng& rng) const {
  return sorted_[rng.NextBounded(sorted_.size())];
}

double EmpiricalCost::MaxCost() const { return sorted_.back(); }

double FitHyperbolaToMean(double mean, double cmax) {
  assert(cmax > 0);
  // Mean(b) = a·cmax − b with a = 1/ln((cmax+b)/b) is increasing in b,
  // ranging over (0, cmax/2): b→0 gives mean→0, b→∞ gives mean→cmax/2.
  double lo_mean = 1e-6 * cmax;
  double hi_mean = 0.4999 * cmax;
  mean = std::clamp(mean, lo_mean, hi_mean);
  double lo = 1e-12 * cmax, hi = cmax;
  auto mean_at = [cmax](double b) {
    return cmax / std::log((cmax + b) / b) - b;
  };
  while (mean_at(hi) < mean) hi *= 2.0;
  for (int i = 0; i < 200 && hi - lo > 1e-12 * hi; ++i) {
    double mid = 0.5 * (lo + hi);
    (mean_at(mid) < mean ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace dynopt
