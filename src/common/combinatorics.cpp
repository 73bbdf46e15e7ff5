#include "common/combinatorics.hpp"

#include <limits>

#include "common/contracts.hpp"

namespace ftr {

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t numer = n - k + i;
    // result * numer / i is always integral at this point; guard the multiply.
    if (result > kMax / numer) return kMax;  // saturate
    result = result * numer / i;
  }
  return result;
}

std::uint64_t checked_binomial(std::uint64_t n, std::uint64_t k) {
  const std::uint64_t total = binomial(n, k);
  FTR_EXPECTS_MSG(total != std::numeric_limits<std::uint64_t>::max(),
                  "C(" << n << ", " << k
                       << ") overflows the 64-bit rank space; not enumerable");
  return total;
}

namespace {

// s[0..k) is a sorted subset prefix; true iff it equals {0,...,k-1} (the
// first subset of any L(n, k)).
bool gray_is_first(const std::vector<std::size_t>& s, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    if (s[i] != i) return false;
  }
  return true;
}

bool gray_predecessor(std::size_t n, std::size_t k, std::vector<std::size_t>& s);

// In-place successor/predecessor of s[0..k) in the revolving-door order
//   L(n, k) = L(n-1, k) ++ [T + {n-1} : T in reverse(L(n-1, k-1))].
// Both return false when no such neighbor exists (s is the last resp. first
// subset, or the list is a singleton: k == 0 or k == n). Entries of s at
// index >= k are never touched, which is what lets the recursion operate on
// the prefix below a fixed top element. Recursion depth is at most k: every
// level either jumps straight to n = max(s)+1 or strips the top element.
bool gray_successor(std::size_t n, std::size_t k, std::vector<std::size_t>& s) {
  if (k == 0 || k == n) return false;
  const std::size_t m = s[k - 1];
  if (m == n - 1) {
    // s is in the reversed L(n-1, k-1) block: its successor is the
    // predecessor of the prefix — unless the prefix is that list's first
    // subset, which makes s the last subset overall.
    if (gray_is_first(s, k - 1)) return false;
    return gray_predecessor(n - 1, k - 1, s);
  }
  // m < n-1: the successor agrees with the one inside L(m+1, k), where s
  // lies in the reversed block (its top element is (m+1)-1)...
  if (!gray_is_first(s, k - 1)) return gray_predecessor(m, k - 1, s);
  // ...except when s = {0..k-2, m} is the last subset of L(m+1, k): the
  // enumeration then crosses into the reversed block of L(m+2, k), whose
  // first subset is last(L(m+1, k-1)) + {m+1} = {0..k-3, m, m+1}.
  if (k >= 2) s[k - 2] = m;
  s[k - 1] = m + 1;
  return true;
}

bool gray_predecessor(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& s) {
  if (k == 0 || k == n) return false;
  const std::size_t m = s[k - 1];
  if (m == n - 1) {
    // s is in the reversed block: its predecessor is the successor of the
    // prefix; if the prefix is the last subset of L(n-1, k-1), s is the
    // block's first element and the predecessor is the last of L(n-1, k).
    if (gray_successor(n - 1, k - 1, s)) return true;
    for (std::size_t i = 0; i + 1 < k; ++i) s[i] = i;
    s[k - 1] = n - 2;  // {0..k-2, n-2}; k <= n-1 here, so n-2 >= k-1
    return true;
  }
  if (gray_is_first(s, k)) return false;  // global first subset
  return gray_predecessor(m + 1, k, s);
}

}  // namespace

std::vector<std::size_t> gray_subset_at_rank(std::size_t n, std::size_t k,
                                             std::uint64_t rank) {
  FTR_EXPECTS(k <= n);
  FTR_EXPECTS_MSG(rank < binomial(n, k),
                  "gray rank " << rank << " out of range for C(" << n << ","
                               << k << ")");
  std::vector<std::size_t> out(k);
  // Walk the recursion top-down: ranks below C(n-1, k) omit n-1; the rest
  // sit in the reversed L(n-1, k-1) block, so the residual rank flips.
  while (k > 0) {
    if (k == n) {
      for (std::size_t i = 0; i < k; ++i) out[i] = i;
      break;
    }
    const std::uint64_t head = binomial(n - 1, k);
    if (rank < head) {
      --n;
      continue;
    }
    out[k - 1] = n - 1;
    rank = binomial(n - 1, k - 1) - 1 - (rank - head);
    --n;
    --k;
  }
  return out;
}

std::uint64_t gray_subset_rank(const std::vector<std::size_t>& subset) {
  // Unfolding the recursion: with m = subset's current top and k elements
  // left, rank = C(m, k) + C(m, k-1) - 1 - rank(rest) — each containment
  // level contributes an alternating-sign term. Unsigned wraparound in the
  // running sum is fine: the final value is exact mod 2^64 and nonnegative.
  std::uint64_t rank = 0;
  bool negate = false;
  for (std::size_t i = subset.size(); i > 0; --i) {
    const std::uint64_t m = subset[i - 1];
    const std::uint64_t term = binomial(m, i) + binomial(m, i - 1) - 1;
    rank = negate ? rank - term : rank + term;
    negate = !negate;
  }
  return rank;
}

GraySubsetEnumerator::GraySubsetEnumerator(std::size_t n, std::size_t k)
    : n_(n), k_(k), cur_(k), prev_(k), valid_(k <= n) {
  for (std::size_t i = 0; i < k; ++i) cur_[i] = i;
}

GraySubsetEnumerator::GraySubsetEnumerator(std::size_t n, std::size_t k,
                                           std::uint64_t rank)
    : n_(n), k_(k), rank_(rank), prev_(k),
      valid_(k <= n && rank < binomial(n, k)) {
  cur_ = valid_ ? gray_subset_at_rank(n, k, rank) : std::vector<std::size_t>(k);
}

bool GraySubsetEnumerator::advance() {
  FTR_EXPECTS(valid_);
  prev_ = cur_;
  if (!gray_successor(n_, k_, cur_)) {
    valid_ = false;
    return false;
  }
  ++rank_;
  // Exactly one element left and one entered; both vectors are sorted, so a
  // single merge pass finds the swap.
  std::size_t i = 0, j = 0;
  bool found_out = false, found_in = false;
  while (i < k_ || j < k_) {
    if (i < k_ && j < k_ && prev_[i] == cur_[j]) {
      ++i;
      ++j;
    } else if (j == k_ || (i < k_ && prev_[i] < cur_[j])) {
      trans_.out = prev_[i++];
      found_out = true;
    } else {
      trans_.in = cur_[j++];
      found_in = true;
    }
  }
  FTR_ASSERT_MSG(found_out && found_in, "revolving door moved != 1 element");
  return true;
}

}  // namespace ftr
