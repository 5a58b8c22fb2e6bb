// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Deterministic pseudo-random number generation used by the workload generators
// and the benchmark harness. We implement xoshiro256++ (seeded via SplitMix64)
// instead of relying on std::mt19937 so that generated databases are
// reproducible across standard-library implementations.

#ifndef TOPK_COMMON_RNG_H_
#define TOPK_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace topk {

/// SplitMix64: tiny PRNG used to expand a 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64 pseudo-random bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// The splitmix64 finalizer as a pure hash: Mix64(x) == SplitMix64(x).Next().
/// FaultDraw (lists/fault_injection.h), behind both fault injectors, and the
/// coordinator's backoff and breaker jitter hash their seeded tuples with it,
/// so every seeded run replays exactly.
inline uint64_t Mix64(uint64_t x) { return SplitMix64(x).Next(); }

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Seeds the generator deterministically from a single 64-bit seed.
  explicit Rng(uint64_t seed = 0x5eed'0f'70'9aULL);

  /// Next 64 pseudo-random bits.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound); bound must be > 0. Uses rejection sampling
  /// to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box-Muller, cached spare).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// True with probability p.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) {
      return;
    }
    for (std::size_t i = values->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// A random permutation of {0, 1, ..., n-1}.
  std::vector<uint32_t> Permutation(uint32_t n);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace topk

#endif  // TOPK_COMMON_RNG_H_
