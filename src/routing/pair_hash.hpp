// Internal helpers of the arena-backed route table and its snapshot
// validator: the hash for dense (x, y) pair keys and the stored-vs-candidate
// path comparison used by the duplicate/cap discipline. Not part of the
// public API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.hpp"

namespace ftr::detail {

// splitmix64 finalizer — a solid avalanche for the dense pair keys.
inline std::uint64_t hash_pair_key(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ull;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
  return k ^ (k >> 31);
}

// True if the arena-stored route equals `p` (reversed when `rev`); `p` is a
// Path or a PathView.
template <typename P>
bool equals_path(PathView stored, const P& p, bool rev) {
  if (stored.size() != p.size()) return false;
  const std::size_t len = p.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (stored[i] != (rev ? p[len - 1 - i] : p[i])) return false;
  }
  return true;
}

}  // namespace ftr::detail
