// Deterministic random number generation.
//
// Every stochastic component of the simulator draws from an explicitly
// seeded Rng so that traces, alarm placements and therefore all experiment
// outputs are reproducible bit-for-bit across runs (a requirement for the
// regression tests in tests/ and the benches in bench/).
//
// The engine is Mt19937_64, a replica of std::mt19937_64: same seeding,
// twist and tempering, so it emits std::mt19937_64's words for every seed,
// and the standard distributions, which see the same result type and
// range, turn them into the same draws. It exists because the standard
// engine keeps its state private. The trace generator steps thousands of
// vehicles, each with its own 2.5 KB engine, and a draw costs two
// dependent cache misses (the index, then the state word it selects); the
// replica exposes both addresses so the generator can prefetch them a few
// vehicles ahead. tests/common_test.cpp pins it to the standard engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

#include "common/error.h"

namespace salarm {

/// The 64-bit Mersenne Twister of [rand.predef], word for word. A
/// UniformRandomBitGenerator with std::mt19937_64's result type and range.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type value) { seed(value); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  void seed(result_type value) {
    x_[0] = value;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      x_[i] = 6364136223846793005u * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
    index_ = kStateSize;
  }

  result_type operator()() {
    if (index_ >= kStateSize) twist();
    result_type z = x_[index_++];
    z ^= (z >> 29) & 0x5555555555555555u;
    z ^= (z << 17) & 0x71d67fffeda60000u;
    z ^= (z << 37) & 0xfff7eee000000000u;
    z ^= z >> 43;
    return z;
  }

  /// Where the index lives: the first read of every draw.
  const void* index_address() const { return &index_; }
  /// The state word the next draw reads, known once the index is. At a
  /// twist boundary that is word 0, which the twist rewrites first.
  const void* next_word_address() const {
    return &x_[index_ < kStateSize ? index_ : 0];
  }

 private:
  static constexpr std::size_t kShift = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  static result_type mix(result_type hi, result_type lo, result_type shifted) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return shifted ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9u : 0);
  }

  void twist() {
    std::size_t k = 0;
    for (; k < kStateSize - kShift; ++k) {
      x_[k] = mix(x_[k], x_[k + 1], x_[k + kShift]);
    }
    for (; k < kStateSize - 1; ++k) {
      x_[k] = mix(x_[k], x_[k + 1], x_[k + kShift - kStateSize]);
    }
    x_[kStateSize - 1] = mix(x_[kStateSize - 1], x_[0], x_[kShift - 1]);
    index_ = 0;
  }

  std::size_t index_ = kStateSize;  ///< first: it shares x_[0..6]'s line
  result_type x_[kStateSize] = {};
};

/// A seedable, copyable random source: intention-revealing draws over
/// Mt19937_64 through the standard distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    SALARM_REQUIRE(lo <= hi, "uniform bounds out of order");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    SALARM_REQUIRE(lo <= hi, "uniform_int bounds out of order");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    SALARM_REQUIRE(n > 0, "index over empty range");
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_));
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p) {
    SALARM_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) {
    SALARM_REQUIRE(sigma >= 0.0, "negative sigma");
    if (sigma == 0.0) return mean;
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Derives an independent child generator; used to give each subsystem
  /// (trace, alarms, trips) its own stream so adding draws to one does not
  /// perturb the others.
  Rng fork() { return Rng(engine_()); }

  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace salarm
