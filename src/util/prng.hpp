// Deterministic pseudo-random number generation for simulations.
//
// SplitMix64 seeds Xoshiro256** and, as CounterRng, gives draws addressed by
// (cycle, row); all are tiny, fast, and reproducible across platforms
// (unlike std::mt19937 + std::uniform_int_distribution, whose distribution
// output is implementation-defined).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bfly {

/// SplitMix64: used to expand a single seed into a full generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the workhorse generator for routing simulations.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) : state_{} {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  constexpr std::uint64_t below(std::uint64_t bound) {
    // A power of two divides 2^64: the rejection threshold below is 0 and
    // r % bound keeps r's low bits, so a mask draws the same stream.
    if (std::has_single_bit(bound)) return (*this)() & (bound - 1);
    // For our simulation bounds (<= 2^32) the bias of a plain 128-bit
    // multiply-high reduction is negligible, but we reject to be exact.
    const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Counter-based draws: the value at address (cycle, row) in lane 0 or 1 is
/// SplitMix64's output for counter cycle * 2^32 + row of a stream whose start
/// the seed and lane pick.  A draw depends on nothing but (seed, cycle, row,
/// lane), so any split of the rows, visited in any order, sees the same
/// numbers.  For one seed and lane, distinct addresses give distinct draws:
/// the counter map and SplitMix64's mix are both bijections of u64.  Cycles
/// and rows must be below 2^32.
class CounterRng {
 public:
  // Lane 1 starts from a draw of lane 0's start, not from the next output of
  // the seed's stream: that one is lane 0's start for seed + 2^64 / phi.
  explicit constexpr CounterRng(std::uint64_t seed)
      : base_{SplitMix64(seed).next(), SplitMix64(SplitMix64(seed).next()).next()} {}

  constexpr std::uint64_t draw(std::uint64_t cycle, std::uint64_t row, std::size_t lane) const {
    return SplitMix64(base_[lane] + ((cycle << 32) + row) * 0x9e3779b97f4a7c15ULL).next();
  }

  /// Lane 0's draw as uniform() < p without the double, for threshold =
  /// uniform_threshold(p): the same decision on every draw.
  constexpr bool uniform_below(std::uint64_t cycle, std::uint64_t row,
                               std::uint64_t threshold) const {
    return (draw(cycle, row, 0) >> 11) < threshold;
  }

  /// Lane 1's draw masked to [0, bound), for a power-of-two bound.
  constexpr std::uint64_t below_pow2(std::uint64_t cycle, std::uint64_t row,
                                     std::uint64_t bound) const {
    return draw(cycle, row, 1) & (bound - 1);
  }

 private:
  std::array<std::uint64_t, 2> base_;
};

/// The integer threshold of CounterRng::uniform_below.  uniform() is
/// m * 2^-53 for the 53-bit m = draw >> 11, and both m * 2^-53 and p * 2^53
/// are exact in double, so uniform() < p exactly when m < ceil(p * 2^53).
/// p >= 1 admits every m; p <= 0 and NaN admit none.
inline std::uint64_t uniform_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

}  // namespace bfly
