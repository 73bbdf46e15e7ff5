// AVX2 instantiation of the packed block kernel. CMake compiles this TU
// (and only this TU) with -mavx2 when the toolchain supports it, so
// LaneBlock's explicit 256-bit paths light up (W = 4 in one ymm
// register, W = 8 in two). Without the flag the lookup returns nullptr
// and select_block_fn() falls through — the cpuid gate in the selector
// (not this TU) decides whether the code may actually run.
#if defined(__AVX2__)

#include "fault/srg_packed_impl.hpp"

namespace ftr::packed {

PackedBlockFn packed_block_fn_avx2(unsigned words) {
  return block_fn_for(words);
}

}  // namespace ftr::packed

#else

#include "fault/srg_packed.hpp"

namespace ftr::packed {

PackedBlockFn packed_block_fn_avx2(unsigned /*words*/) { return nullptr; }

}  // namespace ftr::packed

#endif
