#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/function_ref.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace salarm {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, KnownSequence) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, SingleObservationHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Rng rng(7);
  RunningStat whole;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat a;
  a.add(1.0);
  a.add(2.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStat b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

// Property sweep backing the cluster tier's metrics merge: a sequence
// split into shards at arbitrary points and Welford-merged shard by shard
// must agree with the single-pass accumulator, including uneven and empty
// parts. Each parameter is a different (seed, shard count) draw.
class RunningStatMergeProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(RunningStatMergeProperty, SplitMergeMatchesSinglePass) {
  const auto [seed, parts] = GetParam();
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 2000));

  // Random split points — parts of wildly different sizes, possibly empty.
  std::vector<std::size_t> owner(n);
  for (auto& o : owner) o = rng.index(parts);

  RunningStat whole;
  std::vector<RunningStat> shards(parts);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix magnitudes so a numerically sloppy merge would show up.
    const double x = rng.uniform(-1e6, 1e6) + rng.uniform(-1.0, 1.0);
    whole.add(x);
    shards[owner[i]].add(x);
  }

  RunningStat merged;
  for (const RunningStat& shard : shards) merged.merge(shard);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-6 * (1.0 + std::abs(whole.sum())));
  EXPECT_NEAR(merged.mean(), whole.mean(),
              1e-9 * (1.0 + std::abs(whole.mean())));
  EXPECT_NEAR(merged.variance(), whole.variance(),
              1e-9 * (1.0 + whole.variance()));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSplits, RunningStatMergeProperty,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{42}, std::uint64_t{1234},
                                         std::uint64_t{99999}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{16})));

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ForkIsIndependentOfParentDrawCount) {
  // Forking first and drawing later must equal forking fresh: the child
  // stream depends only on the parent state at fork time.
  Rng a(77);
  Rng child_a = a.fork();
  Rng b(77);
  Rng child_b = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child_a.uniform(0.0, 1.0), child_b.uniform(0.0, 1.0));
  }
}

TEST(RngTest, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.uniform_int(3, 2), PreconditionError);
  EXPECT_THROW(rng.index(0), PreconditionError);
  EXPECT_THROW(rng.chance(1.5), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

static_assert(std::uniform_random_bit_generator<Mt19937_64>);
static_assert(std::is_same_v<Mt19937_64::result_type,
                             std::mt19937_64::result_type>);
static_assert(Mt19937_64::min() == std::mt19937_64::min() &&
              Mt19937_64::max() == std::mt19937_64::max());

constexpr std::uint64_t kEngineSeeds[] = {0, 1, 42, 5489, 0x9E3779B97F4A7C15u,
                                          ~std::uint64_t{0}};

TEST(Mt19937Test, MatchesTheStandardEngineWordForWord) {
  std::size_t words = 0;
  for (const std::uint64_t seed : kEngineSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 200'000; ++i, ++words) {
      ASSERT_EQ(ours(), want()) << "word " << i;
    }
  }
  EXPECT_GE(words, std::size_t{1'000'000});
}

TEST(Mt19937Test, TwistBoundariesAndReseedingMidStream) {
  // Words 312 and 313 are the first two after the first twist that
  // follows the seeding one; re-seeding at every offset around a boundary
  // must rewind both engines to the same place.
  for (const std::uint64_t seed : kEngineSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    std::vector<std::uint64_t> first(314);
    for (std::uint64_t& w : first) {
      w = want();
      ASSERT_EQ(ours(), w);
    }
    EXPECT_NE(first[312], first[0]);
    for (const int drawn : {0, 1, 311, 312, 313, 623, 624, 625, 1000}) {
      SCOPED_TRACE(::testing::Message() << "re-seeded after " << drawn);
      for (int i = 0; i < drawn; ++i) ASSERT_EQ(ours(), want());
      const std::uint64_t next_seed = seed + static_cast<std::uint64_t>(drawn);
      ours.seed(next_seed);
      want.seed(next_seed);
      for (int i = 0; i < 700; ++i) ASSERT_EQ(ours(), want()) << "word " << i;
    }
    ours.seed(seed);
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(ours(), first[i]) << "word " << i;
    }
  }
}

TEST(Mt19937Test, NextWordAddressIsTheWordTheNextDrawReads) {
  Mt19937_64 engine(7);
  const auto* index = static_cast<const std::size_t*>(engine.index_address());
  EXPECT_EQ(*index, Mt19937_64::kStateSize);  // seeded: the next draw twists
  const void* word0 = engine.next_word_address();
  for (std::size_t i = 0; i < 2 * Mt19937_64::kStateSize + 3; ++i) {
    engine();
    const std::size_t at = *index < Mt19937_64::kStateSize ? *index : 0;
    EXPECT_EQ(engine.next_word_address(),
              static_cast<const std::uint64_t*>(word0) + at);
  }
}

/// Bit-identity of two doubles, so -0.0 and NaN payloads count too.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RngTest, DrawsMatchTheStandardDistributionsOverTheStandardEngine) {
  for (const std::uint64_t seed : kEngineSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng ours(seed);
    std::mt19937_64 std_engine(seed);
    for (int i = 0; i < 20'000; ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << i);
      const double lo = -3.5 * (i % 7);
      const double hi = lo + 0.25 * (i % 13);
      ASSERT_TRUE(same_bits(
          ours.uniform(lo, hi),
          std::uniform_real_distribution<double>(lo, hi)(std_engine)));
      // Small and large ranges take the scaled-down draw; every 17th is
      // the engine's whole range, which is drawn unscaled.
      const bool whole = i % 17 == 0;
      const std::int64_t ilo =
          whole ? std::numeric_limits<std::int64_t>::min() : -(i % 50);
      const std::int64_t ihi =
          whole ? std::numeric_limits<std::int64_t>::max()
                : ilo + (i % 3 == 0 ? 1'000'000'007 : i % 97);
      ASSERT_EQ(ours.uniform_int(ilo, ihi),
                std::uniform_int_distribution<std::int64_t>(ilo, ihi)(
                    std_engine));
      const std::size_t n = 1 + static_cast<std::size_t>(i) * 7919 % 40'000;
      ASSERT_EQ(ours.index(n),
                std::uniform_int_distribution<std::size_t>(0, n - 1)(
                    std_engine));
      const double p = (i % 11) / 10.0;
      ASSERT_EQ(ours.chance(p), std::bernoulli_distribution(p)(std_engine));
      const double sigma = 0.05 * (i % 5);  // 0 draws nothing
      const double mean = 100.0 - i;
      const double want =
          sigma == 0.0
              ? mean
              : std::normal_distribution<double>(mean, sigma)(std_engine);
      ASSERT_TRUE(same_bits(ours.normal(mean, sigma), want));
    }
    // Forks seed children from the same word, so they match too.
    Rng child = ours.fork();
    std::mt19937_64 std_child(std_engine());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(same_bits(child.normal(0.0, 1.0),
                            std::normal_distribution<double>(0.0, 1.0)(
                                std_child)));
    }
  }
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(kmh_to_mps(36.0), 10.0);
  EXPECT_DOUBLE_EQ(mps_to_kmh(10.0), 36.0);
  EXPECT_DOUBLE_EQ(sqkm_to_sqm(2.5), 2.5e6);
  EXPECT_DOUBLE_EQ(sqm_to_sqkm(2.5e6), 2.5);
}

TEST(ErrorTest, MacrosThrowTypedExceptions) {
  EXPECT_THROW(SALARM_REQUIRE(false, "nope"), PreconditionError);
  EXPECT_THROW(SALARM_ASSERT(false, "bug"), InvariantError);
  EXPECT_NO_THROW(SALARM_REQUIRE(true, ""));
  EXPECT_NO_THROW(SALARM_ASSERT(true, ""));
}

TEST(FunctionRefTest, CallsAnLvalueCallableItDoesNotCopy) {
  int calls = 0;
  auto count = [&calls](int by) { calls += by; };
  const FunctionRef<void(int)> ref(count);
  ref(2);
  ref(3);
  EXPECT_EQ(calls, 5);
  // Copies refer to the same callable.
  const FunctionRef<void(int)> copy = ref;
  copy(1);
  EXPECT_EQ(calls, 6);
}

TEST(FunctionRefTest, ConstAndMutableCallables) {
  const auto twice = [](int x) { return 2 * x; };
  EXPECT_EQ(FunctionRef<int(int)>(twice)(21), 42);
  // A mutable callable's state changes in place, seen by the owner.
  auto counter = [n = 0]() mutable { return ++n; };
  const FunctionRef<int()> next(counter);
  EXPECT_EQ(next(), 1);
  EXPECT_EQ(next(), 2);
  EXPECT_EQ(counter(), 3);
  // A const call operator on a const object.
  struct Offset {
    int by;
    int operator()(int x) const { return x + by; }
  };
  const Offset plus_seven{7};
  EXPECT_EQ(FunctionRef<int(int)>(plus_seven)(1), 8);
}

TEST(FunctionRefTest, ForwardsArgumentsAndReturnValues) {
  // References reach the callable as references.
  int target = 0;
  const auto assign = [](int& out, int value) { out = value; };
  const FunctionRef<void(int&, int)> assign_ref(assign);
  assign_ref(target, 9);
  EXPECT_EQ(target, 9);
  // Move-only arguments are forwarded, not copied.
  const auto take = [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(FunctionRef<int(std::unique_ptr<int>)>(take)(
                std::make_unique<int>(4)),
            4);
  // Return values convert to the signature's result; a void signature
  // drops them.
  const auto name = [](const char* s) { return s; };
  EXPECT_EQ(FunctionRef<std::string(const char*)>(name)("abc"), "abc");
  int seen = 0;
  const auto returns_int = [&seen](int x) { return seen = x; };
  const FunctionRef<void(int)> drop(returns_int);
  drop(11);
  EXPECT_EQ(seen, 11);
  // A reference result refers to the callable's object.
  int stored = 1;
  const auto ref_to = [&stored]() -> int& { return stored; };
  const FunctionRef<int&()> get(ref_to);
  get() = 5;
  EXPECT_EQ(stored, 5);
}

}  // namespace
}  // namespace salarm
