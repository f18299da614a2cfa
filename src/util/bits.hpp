// Bit-field utilities used throughout the swap-network / butterfly machinery.
//
// Node addresses are unsigned 64-bit integers whose bits are partitioned into
// "groups" (Appendix A of the paper).  The central primitive is
// swap_bit_groups(), realizing the level-i inter-cluster permutation sigma_i
// that exchanges bit group [lo, lo+len) with the rightmost len bits.
#pragma once

#include <bit>
#include <cstdint>

#include "util/check.hpp"

/// Best-effort cache prefetch hint; a no-op on compilers without the builtin.
#if defined(__GNUC__) || defined(__clang__)
#define BFLY_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define BFLY_PREFETCH(addr) ((void)0)
#endif

/// Forces inlining where the optimizer's heuristics would not: a lambda in a
/// header template has vague linkage, so "called once" does not apply to it.
#if defined(__GNUC__) || defined(__clang__)
#define BFLY_ALWAYS_INLINE __attribute__((always_inline))
#else
#define BFLY_ALWAYS_INLINE
#endif

namespace bfly {

using u64 = std::uint64_t;
using u32 = std::uint32_t;
using i64 = std::int64_t;

/// 2^e as u64. Requires 0 <= e < 64.
constexpr u64 pow2(int e) {
  return u64{1} << e;
}

/// floor(log2(x)) for x > 0.
constexpr int ilog2(u64 x) {
  return 63 - std::countl_zero(x);
}

/// Index of the least-significant set bit for x > 0 (std::countr_zero).
constexpr int lowest_set_bit(u64 x) {
  return std::countr_zero(x);
}

/// Index of the most-significant set bit for x > 0 (std::bit_width - 1).
constexpr int highest_set_bit(u64 x) {
  return static_cast<int>(std::bit_width(x)) - 1;
}

/// True iff x is a power of two (x > 0).
constexpr bool is_pow2(u64 x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Extract `len` bits of `x` starting at bit `lo` (LSB = bit 0).
constexpr u64 extract_bits(u64 x, int lo, int len) {
  if (len == 0) return 0;
  return (x >> lo) & (len >= 64 ? ~u64{0} : (pow2(len) - 1));
}

/// Return `x` with bits [lo, lo+len) replaced by the low `len` bits of `v`.
constexpr u64 deposit_bits(u64 x, int lo, int len, u64 v) {
  if (len == 0) return x;
  const u64 mask = (len >= 64 ? ~u64{0} : (pow2(len) - 1)) << lo;
  return (x & ~mask) | ((v << lo) & mask);
}

/// The swap-network permutation sigma: exchange bit group [lo, lo+len) with
/// the rightmost `len` bits [0, len).  Requires lo >= len (the groups must not
/// overlap) or lo == 0 (identity).  This is an involution.
constexpr u64 swap_bit_groups(u64 x, int lo, int len) {
  if (len == 0 || lo == 0) return x;
  const u64 high = extract_bits(x, lo, len);
  const u64 low = extract_bits(x, 0, len);
  u64 y = deposit_bits(x, lo, len, low);
  y = deposit_bits(y, 0, len, high);
  return y;
}

/// Reverse the low `n` bits of x (bits >= n must be zero).
constexpr u64 bit_reverse(u64 x, int n) {
  u64 r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | ((x >> i) & 1);
  }
  return r;
}

/// ceil(a / b) for positive integers.
constexpr i64 ceil_div(i64 a, i64 b) {
  return (a + b - 1) / b;
}

}  // namespace bfly
