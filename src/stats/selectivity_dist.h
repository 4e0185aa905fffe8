// Selectivity probability distributions and their AND/OR/NOT transforms (§2).
//
// A SelectivityDist is a discretized probability density over selectivity
// s ∈ [0,1]: "what we believe the fraction of qualifying records is". The
// paper's §2 studies how Boolean operators transform this belief:
//
//   ~X        mirror symmetry                p_~X(s) = p_X(1-s)
//   X &_c Y   per-point combination with assumed correlation c ∈ [-1,+1],
//             linearly interpolated between the anchor compositions
//                 c=-1:  max(0, sx+sy-1)
//                 c= 0:  sx*sy              (independence)
//                 c=+1:  min(sx, sy)
//   X |_c Y   anchors  min(1, sx+sy) / sx+sy-sx*sy / max(sx, sy)
//   X & Y     unknown correlation: uniform mixture of c over [-1,+1]
//
// The implementation follows the paper's construction exactly: densities are
// reduced to weighted point estimates (bin centers), all point pairs are
// combined, and the resulting point/weight cloud is re-binned into an
// approximate density. Operators under unknown correlation average the
// fixed-correlation results over a uniform grid of c.
//
// JOIN on a shared unique key behaves like AND in this calculus (§2), so no
// separate operator is needed; benches exercising "joins" use AndWith.

#ifndef DYNOPT_STATS_SELECTIVITY_DIST_H_
#define DYNOPT_STATS_SELECTIVITY_DIST_H_

#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace dynopt {

class SelectivityDist {
 public:
  /// Number of discretization bins over [0,1].
  static constexpr int kBins = 512;
  /// Grid resolution for the unknown-correlation mixture.
  static constexpr int kCorrelationGrid = 41;

  /// Uniform("know nothing") prior.
  static SelectivityDist Uniform();

  /// All mass at selectivity `s` (a point estimate believed exact).
  static SelectivityDist Point(double s);

  /// Truncated Gaussian bell at `mean` with spread `stddev`, renormalized on
  /// [0,1] — the paper's "estimation with mean m and error e".
  static SelectivityDist Bell(double mean, double stddev);

  /// Arbitrary non-negative weights, normalized to mass 1.
  static SelectivityDist FromWeights(std::vector<double> weights);

  /// p(1-s): the NOT transform.
  SelectivityDist Negate() const;

  /// AND / OR under a fixed assumed correlation c ∈ [-1, +1].
  SelectivityDist AndWith(const SelectivityDist& other, double corr) const;
  SelectivityDist OrWith(const SelectivityDist& other, double corr) const;

  /// AND / OR under the unknown-correlation assumption (uniform mixture).
  SelectivityDist AndUnknown(const SelectivityDist& other) const;
  SelectivityDist OrUnknown(const SelectivityDist& other) const;

  // ---- summary statistics -------------------------------------------------

  double Mean() const;
  double Variance() const;
  double StdDev() const;
  /// P(S <= s).
  double CdfAt(double s) const;
  /// Smallest s with CdfAt(s) >= p.
  double Quantile(double p) const;
  /// Probability mass in bin `i` (bins cover [i/kBins, (i+1)/kBins)).
  double MassAt(int i) const { return mass_[i]; }
  /// Density value at bin center (mass * kBins).
  double DensityAt(int i) const { return mass_[i] * kBins; }
  /// The full density curve (kBins values) for plotting.
  std::vector<double> DensityCurve() const;

  /// Total mass (1 up to rounding; exposed for invariant tests).
  double TotalMass() const;

  /// Draw a selectivity from this distribution.
  double Sample(Rng& rng) const;

  /// Skewness measure the figures visualize: the ratio of mass in the
  /// lowest decile to mass in the highest decile (large => L-shape at 0).
  double LowToHighDecileRatio() const;

 private:
  SelectivityDist() : mass_(kBins, 0.0) {}

  enum class OpKind { kAnd, kOr };
  SelectivityDist Combine(const SelectivityDist& other, double corr,
                          OpKind op) const;
  SelectivityDist CombineUnknown(const SelectivityDist& other,
                                 OpKind op) const;

  static double BinCenter(int i) { return (i + 0.5) / kBins; }
  static int BinOf(double s);

  std::vector<double> mass_;  // probability mass per bin; sums to 1
};

/// Applies `op_chain` ("&", "|", "~" applied left to right) to `base`; each
/// binary op combines the running distribution with a fresh operand
/// distributed like `base` (the paper's &&&X shorthand: X&Y&Z&W where every
/// predicate has p_X). Correlation: NaN = unknown mixture, else fixed value.
SelectivityDist ApplyOpChain(const SelectivityDist& base,
                             const std::string& op_chain, double corr);

}  // namespace dynopt

#endif  // DYNOPT_STATS_SELECTIVITY_DIST_H_
