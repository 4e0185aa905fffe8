// Deterministic random number generation and workload-skew distributions.
//
// The engine never consults global randomness: every stochastic component
// (sampling estimator, workload generators, Monte-Carlo validators) takes an
// explicit Rng so experiments are exactly reproducible.

#ifndef DYNOPT_UTIL_RNG_H_
#define DYNOPT_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace dynopt {

/// The splitmix64 output function: a full-avalanche 64-bit mix. Hash folds
/// run values through it so that, under XOR, a missing and a spurious small
/// integer cannot cancel out; seeded draws hash (seed ^ key) through it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** with splitmix64 seeding. Fast, high quality, deterministic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). `bound` must be > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Gaussian via Box-Muller.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli with probability p of true.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

 private:
  uint64_t s_[4];
};

/// Zipf(n, theta) sampler over ranks {0..n-1}; rank 0 is the most frequent.
///
/// Uses the cumulative-inverse method over a precomputed harmonic table for
/// exact distribution shape (the generators drive skew experiments, so shape
/// fidelity matters more than per-sample speed). theta = 0 degenerates to
/// uniform; theta around 1 is the classic Zipf [Zipf49] shape the paper's
/// "Zipf-like" intermediate distributions refer to.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  /// Draws one rank in [0, n).
  uint64_t Next(Rng& rng) const;

  /// Probability mass of a given rank.
  double Pmf(uint64_t rank) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
};

}  // namespace dynopt

#endif  // DYNOPT_UTIL_RNG_H_
