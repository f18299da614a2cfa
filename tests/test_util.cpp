#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace bfly {
namespace {

TEST(Bits, Pow2AndLog) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(5), 32u);
  EXPECT_EQ(pow2(30), 1u << 30);
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(63));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Bits, ExtractDeposit) {
  const u64 x = 0b1011'0110'1101;
  EXPECT_EQ(extract_bits(x, 0, 4), 0b1101u);
  EXPECT_EQ(extract_bits(x, 4, 4), 0b0110u);
  EXPECT_EQ(extract_bits(x, 8, 4), 0b1011u);
  EXPECT_EQ(extract_bits(x, 0, 0), 0u);
  EXPECT_EQ(deposit_bits(x, 4, 4, 0b1111), 0b1011'1111'1101u);
  EXPECT_EQ(deposit_bits(x, 0, 0, 0b1111), x);
  // deposit then extract roundtrip
  for (int lo = 0; lo < 12; ++lo) {
    for (int len = 1; lo + len <= 12; ++len) {
      const u64 v = 0b10101010'10101010 & (pow2(len) - 1);
      EXPECT_EQ(extract_bits(deposit_bits(x, lo, len, v), lo, len), v);
    }
  }
}

TEST(Bits, SwapBitGroupsBasic) {
  // Swap bits [4,8) with bits [0,4).
  EXPECT_EQ(swap_bit_groups(0b1011'0110'1101, 4, 4), 0b1011'1101'0110u);
  // Identity when lo == 0 or len == 0.
  EXPECT_EQ(swap_bit_groups(0xdeadbeef, 0, 4), 0xdeadbeefu);
  EXPECT_EQ(swap_bit_groups(0xdeadbeef, 8, 0), 0xdeadbeefu);
}

TEST(Bits, SwapBitGroupsIsInvolution) {
  for (int lo = 1; lo <= 10; ++lo) {
    for (int len = 1; len <= lo; ++len) {
      for (u64 x = 0; x < 4096; x += 7) {
        EXPECT_EQ(swap_bit_groups(swap_bit_groups(x, lo, len), lo, len), x)
            << "lo=" << lo << " len=" << len << " x=" << x;
      }
    }
  }
}

TEST(Bits, SwapBitGroupsIsPermutation) {
  // On [0, 2^10), sigma with lo=6, len=4 must be a bijection.
  std::vector<bool> hit(1024, false);
  for (u64 x = 0; x < 1024; ++x) {
    const u64 y = swap_bit_groups(x, 6, 4);
    ASSERT_LT(y, 1024u);
    EXPECT_FALSE(hit[y]);
    hit[y] = true;
  }
}

TEST(Bits, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  for (u64 x = 0; x < 256; ++x) {
    EXPECT_EQ(bit_reverse(bit_reverse(x, 8), 8), x);
  }
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 8), 1);
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(BFLY_REQUIRE(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(BFLY_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInternalError) {
  EXPECT_THROW(BFLY_CHECK(false, "bug"), InternalError);
  EXPECT_NO_THROW(BFLY_CHECK(true, "fine"));
}

TEST(Prng, Deterministic) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Xoshiro256 c(43);
  bool any_diff = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Prng, BelowIsInRangeAndCoversValues) {
  Xoshiro256 rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, BelowPowerOfTwoMatchesTheRejectionPath) {
  // below() masks a power-of-two bound.  The reference is the general path:
  // reject draws under 2^64 mod bound, then reduce modulo bound.
  const auto reference_below = [](Xoshiro256& rng, u64 bound) {
    const u64 threshold = (~bound + 1) % bound;
    for (;;) {
      const u64 r = rng();
      if (r >= threshold) return r % bound;
    }
  };
  for (const u64 seed : {u64{1}, u64{7}, u64{42}, u64{0xdeadbeef}}) {
    for (int k = 0; k <= 32; ++k) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << k);
      Xoshiro256 fast(seed);
      Xoshiro256 ref(seed);
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(fast.below(pow2(k)), reference_below(ref, pow2(k)));
      }
      EXPECT_EQ(fast(), ref());  // both consumed the same number of draws
    }
  }
}

TEST(Prng, UniformThresholdAgreesWithTheDoubleComparison) {
  // draw >> 11 < uniform_threshold(p) must decide exactly as
  // uniform() < p: at the boundary draws m = T - 1 and m = T (m being the
  // 53-bit draw >> 11), and on random draws.
  const double eps = 0x1.0p-53;
  for (const double p : {0.0, eps, 0.1, 0.5, 0.9, 1.0 - eps, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const u64 t = uniform_threshold(p);
    ASSERT_LE(t, u64{1} << 53);
    const auto as_uniform = [](u64 m) { return static_cast<double>(m) * 0x1.0p-53; };
    if (t > 0) {
      EXPECT_LT(as_uniform(t - 1), p);
    }
    if (t < (u64{1} << 53)) {
      EXPECT_FALSE(as_uniform(t) < p);
    }
    Xoshiro256 a(static_cast<u64>(p * 1000) + 3);
    Xoshiro256 b = a;
    for (int i = 0; i < 20000; ++i) ASSERT_EQ((a() >> 11) < t, b.uniform() < p);
  }
  EXPECT_EQ(uniform_threshold(0.0), 0u);
  EXPECT_EQ(uniform_threshold(eps), 1u);
  EXPECT_EQ(uniform_threshold(1.0), u64{1} << 53);
}

TEST(Prng, CounterDrawsAreDistinctPerSeedCycleAndRow) {
  // Each (seed, cycle, row, lane) names its own draw: no two addresses of a
  // grid collide, including cycles and rows at the top of their u32 range.
  std::set<u64> seen;
  std::size_t drawn = 0;
  for (const u64 seed : {u64{0}, u64{1}, u64{2}, u64{0x9e3779b97f4a7c15}}) {
    const CounterRng rng(seed);
    for (const u64 cycle : {u64{0}, u64{1}, u64{2}, u64{63}, (u64{1} << 32) - 1}) {
      for (u64 row = 0; row < 64; ++row) {
        for (const u64 r : {row, (u64{1} << 32) - 1 - row}) {
          for (const std::size_t lane : {std::size_t{0}, std::size_t{1}}) {
            seen.insert(rng.draw(cycle, r, lane));
            ++drawn;
          }
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), drawn);
  // A draw is a pure function of its address: a second generator agrees.
  EXPECT_EQ(CounterRng(5).draw(17, 3, 1), CounterRng(5).draw(17, 3, 1));
}

TEST(Prng, CounterInjectionTestAgreesWithUniformThreshold) {
  const CounterRng rng(2026);
  for (const double p : {0.0, 0x1.0p-53, 0.1, 0.5, 0.9, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const u64 t = uniform_threshold(p);
    u64 admitted = 0;
    for (u64 cycle = 0; cycle < 40; ++cycle) {
      for (u64 row = 0; row < 256; ++row) {
        const double u = static_cast<double>(rng.draw(cycle, row, 0) >> 11) * 0x1.0p-53;
        ASSERT_EQ(rng.uniform_below(cycle, row, t), u < p);
        admitted += u < p ? 1 : 0;
      }
    }
    if (p == 0.5) {
      EXPECT_NEAR(static_cast<double>(admitted) / (40.0 * 256.0), 0.5, 0.03);
    }
  }
}

TEST(Prng, CounterDestinationIsAPowerOfTwoMask) {
  // below_pow2 keeps the low bits of lane 1's draw: in range, and nested, so
  // B_k's destination is the low k bits of B_{k+1}'s.
  const CounterRng rng(99);
  for (u64 cycle = 0; cycle < 8; ++cycle) {
    for (u64 row = 0; row < 64; ++row) {
      const u64 raw = rng.draw(cycle, row, 1);
      for (int k = 0; k <= 32; ++k) {
        const u64 dst = rng.below_pow2(cycle, row, pow2(k));
        ASSERT_LT(dst, pow2(k));
        ASSERT_EQ(dst, raw % pow2(k));
      }
    }
  }
  // The destination lane is not the injection lane.
  EXPECT_NE(rng.draw(0, 0, 0), rng.draw(0, 0, 1));
}

TEST(Parallel, SumsMatchSerial) {
  const std::size_t n = 100000;
  std::vector<u64> data(n);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<u64> total{0};
  parallel_for_chunked(0, n, 8, [&](std::size_t lo, std::size_t hi, std::size_t) {
    u64 local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += data[i];
    total += local;
  });
  EXPECT_EQ(total.load(), u64{n} * (n - 1) / 2);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for_chunked(5, 5, 4, [&](std::size_t, std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_chunked(0, 100, 4,
                           [](std::size_t lo, std::size_t, std::size_t) {
                             if (lo == 0) throw std::runtime_error("worker failure");
                           }),
      std::runtime_error);
}

TEST(Parallel, SoleThrowerWinsVerbatim) {
  // Only worker 2 throws; its exact exception must come back.
  try {
    parallel_for_chunked(0, 400, 4, [](std::size_t, std::size_t, std::size_t tid) {
      if (tid == 2) throw std::runtime_error("tid-2 failure");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tid-2 failure");
  }
}

TEST(Parallel, FirstExceptionWinsWhenAllThrow) {
  // Every worker throws a distinct exception.  Exactly one propagates (the
  // first to be captured); the rest are swallowed, never terminate().
  for (int round = 0; round < 8; ++round) {
    try {
      parallel_for_chunked(0, 400, 4, [](std::size_t, std::size_t, std::size_t tid) {
        throw std::runtime_error("worker " + std::to_string(tid));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      ASSERT_TRUE(what.rfind("worker ", 0) == 0) << what;
      const int tid = std::stoi(what.substr(7));
      EXPECT_GE(tid, 0);
      EXPECT_LT(tid, 4);
    }
  }
}

TEST(Parallel, ExceptionDoesNotLoseNonThrowingWork) {
  // Side effects of workers that completed before/alongside the thrower are
  // still visible after the rethrow — failure is loud, not corrupting.
  std::vector<std::atomic<int>> seen(400);
  try {
    parallel_for_chunked(0, 400, 4, [&](std::size_t lo, std::size_t hi, std::size_t tid) {
      for (std::size_t i = lo; i < hi; ++i) seen[i]++;
      if (tid == 1) throw std::runtime_error("late failure");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(Parallel, ElementwiseCoversAllIndices) {
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> seen(n);
  parallel_for(0, n, [&](std::size_t i) { seen[i]++; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(Flags, ParseBoundedU64AcceptsInRangeIntegers) {
  u64 v = 99;
  EXPECT_TRUE(util::parse_bounded_u64("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::parse_bounded_u64("65535", 1, 65535, &v));
  EXPECT_EQ(v, 65535u);
  EXPECT_TRUE(util::parse_bounded_u64("007", 1, 10, &v));  // leading zeros are fine
  EXPECT_EQ(v, 7u);
  const u64 max = ~u64{0};
  EXPECT_TRUE(util::parse_bounded_u64("18446744073709551615", 0, max, &v));
  EXPECT_EQ(v, max);
}

TEST(Flags, ParseBoundedU64RejectsGarbageAndOutOfRange) {
  u64 v = 42;
  for (const char* bad : {"", "4x", "x4", "-2", "+2", " 7", "7 ", "1e3", "0x10", "1.5"}) {
    EXPECT_FALSE(util::parse_bounded_u64(bad, 0, 1000, &v)) << bad;
    EXPECT_EQ(v, 42u) << "out must stay untouched for '" << bad << "'";
  }
  EXPECT_FALSE(util::parse_bounded_u64(nullptr, 0, 1000, &v));
  EXPECT_FALSE(util::parse_bounded_u64("0", 1, 1000, &v));      // below min
  EXPECT_FALSE(util::parse_bounded_u64("1001", 1, 1000, &v));   // above max
  // Far past u64: must be rejected by the overflow guard, not wrapped into
  // an in-range value.
  EXPECT_FALSE(util::parse_bounded_u64("99999999999999999999999", 0, 1000, &v));
  EXPECT_FALSE(util::parse_bounded_u64("18446744073709551616", 0, ~u64{0}, &v));
  EXPECT_EQ(v, 42u);
}

TEST(Flags, ParseThreadCountDelegatesToBoundedParser) {
  std::size_t t = 0;
  EXPECT_TRUE(parse_thread_count("4096", &t));
  EXPECT_EQ(t, 4096u);
  EXPECT_FALSE(parse_thread_count("0", &t));
  EXPECT_FALSE(parse_thread_count("4097", &t));
  EXPECT_FALSE(parse_thread_count("8f", &t));
}

TEST(Cancel, ExtendDeadlineOnlyMovesLater) {
  using clock = std::chrono::steady_clock;
  CancelToken token;
  const auto near = clock::now() + std::chrono::milliseconds(50);
  const auto far = clock::now() + std::chrono::hours(1);
  token.extend_deadline_until(near);
  ASSERT_TRUE(token.has_deadline());
  EXPECT_EQ(token.deadline(), near);
  // Extending to a later instant moves the deadline out...
  token.extend_deadline_until(far);
  EXPECT_EQ(token.deadline(), far);
  // ...but a shorter joiner can never pull it back in.
  token.extend_deadline_until(near);
  EXPECT_EQ(token.deadline(), far);
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancel, FloatingPointBudgetArmsAnExactDeadline) {
  using clock = std::chrono::steady_clock;
  CancelToken token;
  const auto before = clock::now();
  token.set_deadline_after(std::chrono::duration<double>(3600.5));
  const auto after = clock::now();
  ASSERT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.cancelled());
  const auto budget = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(3600.5));
  EXPECT_GE(token.deadline(), before + budget);
  EXPECT_LE(token.deadline(), after + budget);
}

TEST(Cancel, ExtendDeadlineArmsUnarmedToken) {
  using clock = std::chrono::steady_clock;
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  token.extend_deadline_until(clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.cancelled());
}

}  // namespace
}  // namespace bfly
