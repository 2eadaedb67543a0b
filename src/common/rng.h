// Deterministic, splittable random number generation.
//
// The library threads an explicit Rng through every randomized component so
// experiments are exactly reproducible from a single seed. The engine is
// xoshiro256** (public domain, Blackman & Vigna) seeded via SplitMix64.
#ifndef PRIVBASIS_COMMON_RNG_H_
#define PRIVBASIS_COMMON_RNG_H_

#include <cstdint>
#include <limits>

namespace privbasis {

/// SplitMix64 step: advances `state` and returns the next output. Used for
/// seeding and stream splitting.
uint64_t SplitMix64Next(uint64_t* state);

/// xoshiro256** pseudo-random engine wrapped with convenience sampling
/// methods. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs an engine whose full 256-bit state is expanded from `seed`
  /// with SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in (0, 1] — never returns 0; safe as a log() argument.
  double NextDoubleOpen();

  /// Uniform integer in [0, bound) via Lemire's unbiased method.
  /// `bound` must be > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_RNG_H_
