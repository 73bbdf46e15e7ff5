#include "common/combinatorics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "lex_oracle.hpp"

namespace ftr {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Binomial, KGreaterThanNIsZero) {
  EXPECT_EQ(binomial(3, 4), 0u);
  EXPECT_EQ(binomial(0, 1), 0u);
}

TEST(Binomial, Symmetry) {
  for (std::uint64_t n = 1; n <= 20; ++n) {
    for (std::uint64_t k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n, n - k)) << n << " " << k;
    }
  }
}

TEST(Binomial, PascalRecurrence) {
  for (std::uint64_t n = 2; n <= 30; ++n) {
    for (std::uint64_t k = 1; k < n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
    }
  }
}

TEST(Binomial, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(binomial(1000, 500), std::numeric_limits<std::uint64_t>::max());
}

TEST(SubsetEnumerator, CountMatchesBinomial) {
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      SubsetEnumerator e(n, k);
      std::uint64_t count = 0;
      while (e.valid()) {
        ++count;
        e.advance();
      }
      EXPECT_EQ(count, binomial(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(SubsetEnumerator, EmptySubsetEnumeratedOnce) {
  SubsetEnumerator e(5, 0);
  ASSERT_TRUE(e.valid());
  EXPECT_TRUE(e.current().empty());
  e.advance();
  EXPECT_FALSE(e.valid());
}

TEST(SubsetEnumerator, KGreaterThanNIsEmptyEnumeration) {
  SubsetEnumerator e(2, 3);
  EXPECT_FALSE(e.valid());
}

TEST(SubsetEnumerator, LexicographicOrderAndUniqueness) {
  SubsetEnumerator e(6, 3);
  std::set<std::vector<std::size_t>> seen;
  std::vector<std::size_t> prev;
  while (e.valid()) {
    const auto& cur = e.current();
    EXPECT_TRUE(std::is_sorted(cur.begin(), cur.end()));
    EXPECT_TRUE(seen.insert(cur).second) << "duplicate subset";
    if (!prev.empty()) {
      EXPECT_LT(prev, cur) << "not lexicographic";
    }
    prev = cur;
    e.advance();
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(ForEachSubset, VisitsAll) {
  int count = 0;
  const bool completed =
      for_each_subset(5, 2, [&](const std::vector<std::size_t>&) {
        ++count;
        return true;
      });
  EXPECT_TRUE(completed);
  EXPECT_EQ(count, 10);
}

TEST(ForEachSubset, EarlyStop) {
  int count = 0;
  const bool completed =
      for_each_subset(5, 2, [&](const std::vector<std::size_t>&) {
        ++count;
        return count < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(SubsetEnumerator, EmptyUniverse) {
  SubsetEnumerator e(0, 0);
  ASSERT_TRUE(e.valid());
  EXPECT_TRUE(e.current().empty());
  e.advance();
  EXPECT_FALSE(e.valid());
}

// --- revolving-door (Gray) enumeration --------------------------------------

// Reference list built straight from the defining recursion
// L(n,k) = L(n-1,k) ++ [S + {n-1} : S in reverse(L(n-1,k-1))].
std::vector<std::vector<std::size_t>> revolving_door_reference(std::size_t n,
                                                               std::size_t k) {
  if (k > n) return {};
  if (k == 0) return {{}};
  if (k == n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return {all};
  }
  auto list = revolving_door_reference(n - 1, k);
  const auto tail = revolving_door_reference(n - 1, k - 1);
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
    auto s = *it;
    s.push_back(n - 1);
    list.push_back(std::move(s));
  }
  return list;
}

TEST(GraySubsetEnumerator, MatchesRecursiveReference) {
  for (std::size_t n = 0; n <= 9; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      const auto ref = revolving_door_reference(n, k);
      ASSERT_EQ(ref.size(), binomial(n, k));
      GraySubsetEnumerator e(n, k);
      std::size_t idx = 0;
      ASSERT_TRUE(e.valid());
      while (true) {
        ASSERT_LT(idx, ref.size()) << "n=" << n << " k=" << k;
        EXPECT_EQ(e.current(), ref[idx]) << "n=" << n << " k=" << k
                                         << " rank=" << idx;
        EXPECT_EQ(e.rank(), idx);
        if (!e.advance()) break;
        ++idx;
      }
      EXPECT_EQ(idx + 1, ref.size());
      EXPECT_FALSE(e.valid());
    }
  }
}

TEST(GraySubsetEnumerator, TransitionsAreSingleSwaps) {
  GraySubsetEnumerator e(8, 3);
  auto prev = e.current();
  while (e.advance()) {
    const auto& t = e.last_transition();
    // Applying {out, in} to the previous subset gives the current one.
    auto expected = prev;
    const auto it = std::find(expected.begin(), expected.end(), t.out);
    ASSERT_NE(it, expected.end());
    *it = t.in;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(expected, e.current());
    EXPECT_EQ(std::count(prev.begin(), prev.end(), t.in), 0);
    prev = e.current();
  }
}

TEST(GraySubsetEnumerator, RankUnrankRoundTrip) {
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{7, 3},
                             {6, 2},
                             {5, 0},
                             {5, 5},
                             {9, 4}}) {
    GraySubsetEnumerator e(n, k);
    for (std::uint64_t rank = 0;; ++rank) {
      EXPECT_EQ(gray_subset_at_rank(n, k, rank), e.current());
      EXPECT_EQ(gray_subset_rank(e.current()), rank);
      // Seeding mid-sequence continues exactly where a fresh scan would be.
      GraySubsetEnumerator seeded(n, k, rank);
      ASSERT_TRUE(seeded.valid());
      EXPECT_EQ(seeded.current(), e.current());
      if (!e.advance()) break;
    }
  }
  EXPECT_FALSE(GraySubsetEnumerator(7, 3, binomial(7, 3)).valid());
  EXPECT_THROW(gray_subset_at_rank(7, 3, binomial(7, 3)), ContractViolation);
}

TEST(GraySubsetEnumerator, RankSeededContinuationCoversTheTail) {
  // A worker chunk seeded at rank r must see exactly the subsets a serial
  // scan sees from rank r on — the chunked exhaustive sweep's contract.
  const std::size_t n = 7, k = 3;
  GraySubsetEnumerator reference(n, k);
  for (std::uint64_t r = 0; r < binomial(n, k); ++r) {
    if (r > 0) reference.advance();
    if (r % 5 != 0) continue;  // spot-check every fifth rank
    GraySubsetEnumerator seeded(n, k, r);
    GraySubsetEnumerator walker(n, k);
    for (std::uint64_t i = 0; i < r; ++i) walker.advance();
    while (walker.valid()) {
      EXPECT_EQ(seeded.current(), walker.current());
      const bool a = seeded.advance();
      const bool b = walker.advance();
      EXPECT_EQ(a, b);
    }
  }
}

TEST(GraySubsetEnumerator, DegenerateShapes) {
  GraySubsetEnumerator empty(5, 0);
  ASSERT_TRUE(empty.valid());
  EXPECT_TRUE(empty.current().empty());
  EXPECT_FALSE(empty.advance());
  EXPECT_FALSE(empty.valid());

  GraySubsetEnumerator full(4, 4);
  ASSERT_TRUE(full.valid());
  EXPECT_EQ(full.current(), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_FALSE(full.advance());

  EXPECT_FALSE(GraySubsetEnumerator(2, 3).valid());
  EXPECT_EQ(GraySubsetEnumerator(30, 3).count(), binomial(30, 3));
}

}  // namespace
}  // namespace ftr
