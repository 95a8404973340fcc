// Deterministic random number generation.
//
// All stochastic components (traffic simulator, noise injection, solver
// shuffles) draw from an explicitly seeded Rng so that every experiment in
// the repository is reproducible bit-for-bit.

#ifndef MIVID_COMMON_RNG_H_
#define MIVID_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mivid {

/// Deterministic PRNG (xoshiro256**) with convenience distributions.
///
/// Not thread-safe; use one instance per thread or component.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace mivid

#endif  // MIVID_COMMON_RNG_H_
