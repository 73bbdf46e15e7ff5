#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/contracts.hpp"

namespace ftr {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroViolatesContract) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(21);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(perm.size(), 50u);
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationActuallyShuffles) {
  Rng rng(22);
  const auto perm = rng.permutation(100);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < perm.size(); ++i) fixed += (perm[i] == i);
  EXPECT_LT(fixed, 20u);  // identity would have 100
}

TEST(Rng, SampleSizeAndSortedUnique) {
  Rng rng(31);
  const auto s = rng.sample(100, 10);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_EQ(std::set<std::size_t>(s.begin(), s.end()).size(), 10u);
  for (auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullUniverse) {
  Rng rng(32);
  const auto s = rng.sample(8, 8);
  EXPECT_EQ(s.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleZero) {
  Rng rng(33);
  EXPECT_TRUE(rng.sample(10, 0).empty());
}

TEST(Rng, SampleOverdraftViolatesContract) {
  Rng rng(34);
  EXPECT_THROW(rng.sample(3, 4), ContractViolation);
}

TEST(Rng, SampleIsRoughlyUniform) {
  Rng rng(35);
  std::vector<int> counts(10, 0);
  for (int rep = 0; rep < 5000; ++rep) {
    for (auto v : rng.sample(10, 3)) ++counts[v];
  }
  // Each element appears with probability 3/10 per draw -> ~1500 times.
  for (int c : counts) EXPECT_NEAR(c, 1500, 200);
}

TEST(Rng, StreamIsPureFunctionOfSeedAndId) {
  Rng a = Rng::stream(123, 7);
  Rng b = Rng::stream(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsWithDistinctIdsDoNotOverlap) {
  // Counter-based streams back every randomized parallel sweep: task i
  // draws from stream(seed, i). If two ids on the same seed replayed each
  // other's values, "bit-identical for any thread count" would silently
  // become "correlated across tasks". Smoke-check disjointness: the draw
  // prefixes of several streams share no value at all (a collision of
  // 64-bit draws in this sample is ~2^-41, i.e. a real defect).
  constexpr std::uint64_t kSeed = 2026;
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kDraws = 512;
  std::set<std::uint64_t> seen;
  for (std::size_t id = 0; id < kStreams; ++id) {
    Rng rng = Rng::stream(kSeed, id);
    for (std::size_t i = 0; i < kDraws; ++i) {
      EXPECT_TRUE(seen.insert(rng()).second)
          << "streams overlap at id " << id << " draw " << i;
    }
  }
  EXPECT_EQ(seen.size(), kStreams * kDraws);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(77);
  Rng child = a.split();
  // The child stream should not replay the parent stream.
  Rng b(77);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == b());
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace ftr
