#include "stats/selectivity_dist.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dynopt {

namespace {

double AndAnchor(double sx, double sy, double corr) {
  double indep = sx * sy;
  if (corr >= 0.0) {
    return (1.0 - corr) * indep + corr * std::min(sx, sy);
  }
  return (1.0 + corr) * indep + (-corr) * std::max(0.0, sx + sy - 1.0);
}

double OrAnchor(double sx, double sy, double corr) {
  double indep = sx + sy - sx * sy;
  if (corr >= 0.0) {
    return (1.0 - corr) * indep + corr * std::max(sx, sy);
  }
  return (1.0 + corr) * indep + (-corr) * std::min(1.0, sx + sy);
}

}  // namespace

int SelectivityDist::BinOf(double s) {
  int b = static_cast<int>(s * kBins);
  return std::clamp(b, 0, kBins - 1);
}

SelectivityDist SelectivityDist::Uniform() {
  SelectivityDist d;
  std::fill(d.mass_.begin(), d.mass_.end(), 1.0 / kBins);
  return d;
}

SelectivityDist SelectivityDist::Point(double s) {
  SelectivityDist d;
  d.mass_[BinOf(s)] = 1.0;
  return d;
}

SelectivityDist SelectivityDist::Bell(double mean, double stddev) {
  SelectivityDist d;
  if (stddev <= 0.0) return Point(mean);
  double total = 0.0;
  for (int i = 0; i < kBins; ++i) {
    double z = (BinCenter(i) - mean) / stddev;
    d.mass_[i] = std::exp(-0.5 * z * z);
    total += d.mass_[i];
  }
  for (auto& m : d.mass_) m /= total;
  return d;
}

SelectivityDist SelectivityDist::FromWeights(std::vector<double> weights) {
  SelectivityDist d;
  assert(weights.size() == static_cast<size_t>(kBins));
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  if (total <= 0.0) return Uniform();
  for (int i = 0; i < kBins; ++i) {
    d.mass_[i] = std::max(weights[i], 0.0) / total;
  }
  return d;
}

SelectivityDist SelectivityDist::Negate() const {
  SelectivityDist d;
  for (int i = 0; i < kBins; ++i) d.mass_[i] = mass_[kBins - 1 - i];
  return d;
}

SelectivityDist SelectivityDist::Combine(const SelectivityDist& other,
                                         double corr, OpKind op) const {
  SelectivityDist out;
  for (int i = 0; i < kBins; ++i) {
    double wi = mass_[i];
    if (wi == 0.0) continue;
    double si = BinCenter(i);
    for (int j = 0; j < kBins; ++j) {
      double wj = other.mass_[j];
      if (wj == 0.0) continue;
      double sj = BinCenter(j);
      double s = op == OpKind::kAnd ? AndAnchor(si, sj, corr)
                                    : OrAnchor(si, sj, corr);
      out.mass_[BinOf(s)] += wi * wj;
    }
  }
  return out;
}

SelectivityDist SelectivityDist::CombineUnknown(const SelectivityDist& other,
                                                OpKind op) const {
  SelectivityDist out;
  for (int g = 0; g < kCorrelationGrid; ++g) {
    double corr = -1.0 + 2.0 * g / (kCorrelationGrid - 1);
    SelectivityDist part = Combine(other, corr, op);
    for (int i = 0; i < kBins; ++i) {
      out.mass_[i] += part.mass_[i] / kCorrelationGrid;
    }
  }
  return out;
}

SelectivityDist SelectivityDist::AndWith(const SelectivityDist& other,
                                         double corr) const {
  return Combine(other, corr, OpKind::kAnd);
}

SelectivityDist SelectivityDist::OrWith(const SelectivityDist& other,
                                        double corr) const {
  return Combine(other, corr, OpKind::kOr);
}

SelectivityDist SelectivityDist::AndUnknown(
    const SelectivityDist& other) const {
  return CombineUnknown(other, OpKind::kAnd);
}

SelectivityDist SelectivityDist::OrUnknown(const SelectivityDist& other) const {
  return CombineUnknown(other, OpKind::kOr);
}

double SelectivityDist::Mean() const {
  double m = 0.0;
  for (int i = 0; i < kBins; ++i) m += mass_[i] * BinCenter(i);
  return m;
}

double SelectivityDist::Variance() const {
  double mean = Mean();
  double v = 0.0;
  for (int i = 0; i < kBins; ++i) {
    double d = BinCenter(i) - mean;
    v += mass_[i] * d * d;
  }
  return v;
}

double SelectivityDist::StdDev() const { return std::sqrt(Variance()); }

double SelectivityDist::CdfAt(double s) const {
  double c = 0.0;
  for (int i = 0; i < kBins && BinCenter(i) <= s; ++i) c += mass_[i];
  return c;
}

double SelectivityDist::Quantile(double p) const {
  double c = 0.0;
  for (int i = 0; i < kBins; ++i) {
    c += mass_[i];
    if (c >= p) return BinCenter(i);
  }
  return 1.0;
}

std::vector<double> SelectivityDist::DensityCurve() const {
  std::vector<double> out(kBins);
  for (int i = 0; i < kBins; ++i) out[i] = DensityAt(i);
  return out;
}

double SelectivityDist::TotalMass() const {
  double t = 0.0;
  for (double m : mass_) t += m;
  return t;
}

double SelectivityDist::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  double c = 0.0;
  for (int i = 0; i < kBins; ++i) {
    c += mass_[i];
    if (u <= c) {
      // Jitter uniformly within the bin for a continuous draw.
      return (i + rng.NextDouble()) / kBins;
    }
  }
  return 1.0;
}

double SelectivityDist::LowToHighDecileRatio() const {
  double low = 0.0, high = 0.0;
  int decile = kBins / 10;
  for (int i = 0; i < decile; ++i) low += mass_[i];
  for (int i = kBins - decile; i < kBins; ++i) high += mass_[i];
  if (high <= 0.0) return low > 0.0 ? 1e9 : 1.0;
  return low / high;
}

SelectivityDist ApplyOpChain(const SelectivityDist& base,
                             const std::string& op_chain, double corr) {
  // Each binary operator combines the running distribution with a fresh
  // operand distributed like `base` — the paper's &&&X is X&Y&Z&W where
  // every predicate has the distribution of X.
  SelectivityDist cur = base;
  bool unknown = std::isnan(corr);
  for (char op : op_chain) {
    switch (op) {
      case '&':
        cur = unknown ? cur.AndUnknown(base) : cur.AndWith(base, corr);
        break;
      case '|':
        cur = unknown ? cur.OrUnknown(base) : cur.OrWith(base, corr);
        break;
      case '~':
        cur = cur.Negate();
        break;
      default:
        assert(false && "op chain must contain only &, |, ~");
    }
  }
  return cur;
}

}  // namespace dynopt
