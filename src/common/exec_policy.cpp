#include "common/exec_policy.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace ftr {

unsigned ExecPolicy::resolved_threads() const {
  return resolve_threads(threads);
}

std::size_t ExecPolicy::resolved_batch() const {
  // 2^20 x the 256-thread cap stays far from wrapping a 64-bit window.
  constexpr std::size_t kMaxBatch = std::size_t{1} << 20;
  return std::clamp<std::size_t>(batch_size, 1, kMaxBatch);
}

}  // namespace ftr
