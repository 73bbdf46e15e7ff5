// Test oracle: the plain serial lexicographic exhaustive scan. Every
// f-subset of {0..n-1}, in lexicographic order, goes through one evaluator;
// the first set reaching the maximum is the witness. It shares no code with
// the library's Gray-order scan, which is what makes it a useful oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "adversary_oracle.hpp"
#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "fault/surviving.hpp"

namespace ftr {

/// Iterator-style enumeration of all k-subsets of {0,...,n-1} in
/// lexicographic order. Usage:
///
///   SubsetEnumerator e(n, k);
///   while (e.valid()) { use(e.current()); e.advance(); }
///
/// Enumerating k = 0 yields exactly one (empty) subset.
class SubsetEnumerator {
 public:
  SubsetEnumerator(std::size_t n, std::size_t k)
      : n_(n), k_(k), cur_(k), valid_(k <= n) {
    for (std::size_t i = 0; i < k; ++i) cur_[i] = i;
  }

  bool valid() const { return valid_; }
  const std::vector<std::size_t>& current() const { return cur_; }

  void advance() {
    FTR_EXPECTS(valid_);
    if (k_ == 0) {
      valid_ = false;  // the single empty subset has been consumed
      return;
    }
    // Find the rightmost element that can still be incremented.
    std::size_t i = k_;
    while (i > 0) {
      --i;
      if (cur_[i] != i + n_ - k_) {
        ++cur_[i];
        for (std::size_t j = i + 1; j < k_; ++j) cur_[j] = cur_[j - 1] + 1;
        return;
      }
    }
    valid_ = false;
  }

  /// Total number of subsets this enumerator will produce.
  std::uint64_t count() const { return binomial(n_, k_); }

 private:
  std::size_t n_;
  std::size_t k_;
  std::vector<std::size_t> cur_;
  bool valid_;
};

/// Calls `fn` for every k-subset of {0,...,n-1} in lexicographic order;
/// stops early if `fn` returns false. Returns true iff the enumeration ran
/// to completion.
inline bool for_each_subset(
    std::size_t n, std::size_t k,
    const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  SubsetEnumerator e(n, k);
  while (e.valid()) {
    if (!fn(e.current())) return false;
    e.advance();
  }
  return true;
}

struct LexOracleResult {
  std::vector<Node> worst_faults;
  std::uint32_t worst_diameter = 0;
  std::uint64_t evaluations = 0;
};

inline LexOracleResult lex_worst_faults(std::size_t n, std::size_t f,
                                        const SetEvaluator& eval) {
  LexOracleResult result;
  std::vector<Node> faults(f);
  for_each_subset(n, f, [&](const std::vector<std::size_t>& subset) {
    for (std::size_t i = 0; i < f; ++i) faults[i] = static_cast<Node>(subset[i]);
    const std::uint32_t d = eval(faults);
    ++result.evaluations;
    if (result.evaluations == 1 || d > result.worst_diameter) {
      result.worst_diameter = d;
      result.worst_faults = faults;
    }
    return true;
  });
  return result;
}

/// Worst surviving diameter over all f-subsets, each evaluated by the
/// one-shot surviving_diameter.
template <typename Table>
std::uint32_t lex_worst_diameter(const Table& table, std::size_t f) {
  return lex_worst_faults(table.num_nodes(), f,
                          [&](const std::vector<Node>& faults) {
                            return surviving_diameter(table, faults);
                          })
      .worst_diameter;
}

}  // namespace ftr
