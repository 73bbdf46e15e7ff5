// Per-node flag bytes that reset in O(1): the scratch behind the Menger
// queries and the path/tree-routing validators, which run thousands of
// times while one table is planned and used to build a hash set per call.
//
// A node's flags read 0 unless they were set since the last begin(); an
// epoch stamp per node says which begin() its byte belongs to. Each caller
// owns its own (thread_local) instance, so a validator called from inside
// a Menger query never clobbers the query's marks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ftr {

class NodeMarks {
 public:
  /// Clears every flag and sizes the marks for nodes 0..n-1.
  void begin(std::size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      flags_.resize(n, 0);
    }
    if (++epoch_ == 0) {  // wrapped: old stamps could alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  std::uint8_t get(Node v) const {
    return stamp_[v] == epoch_ ? flags_[v] : std::uint8_t{0};
  }

  bool has(Node v, std::uint8_t flag) const { return (get(v) & flag) != 0; }

  void set(Node v, std::uint8_t flag) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      flags_[v] = 0;
    }
    flags_[v] |= flag;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> flags_;
  std::uint32_t epoch_ = 0;
};

}  // namespace ftr
