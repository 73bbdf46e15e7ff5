// Test oracle: the plain serial lexicographic exhaustive scan. Every
// f-subset of {0..n-1}, in lexicographic order, goes through one evaluator;
// the first set reaching the maximum is the witness. It shares no code with
// the library's Gray-order scan, which is what makes it a useful oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/combinatorics.hpp"
#include "adversary_oracle.hpp"
#include "fault/surviving.hpp"

namespace ftr {

struct LexOracleResult {
  std::vector<Node> worst_faults;
  std::uint32_t worst_diameter = 0;
  std::uint64_t evaluations = 0;
  bool exhaustive = true;  // false when stop_above cut the scan short
};

/// `stop_above`, if nonzero, ends the scan after the first set whose
/// diameter exceeds it.
inline LexOracleResult lex_worst_faults(std::size_t n, std::size_t f,
                                        const SetEvaluator& eval,
                                        std::uint32_t stop_above = 0) {
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
    result.exhaustive = stop_above == 0 || d <= stop_above;
    return result.exhaustive;
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
