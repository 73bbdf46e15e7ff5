// Portable instantiation of the packed block kernel (baseline build
// flags; LaneBlock holds plain 64-bit words unless the global -m flags
// enable a vector path). Always available — select_block_fn()'s
// fallback. This TU also hosts the runtime selector, since it is the one
// ISA TU that is safe to call unconditionally.
#include "fault/srg_packed_impl.hpp"

#include "common/cpu_features.hpp"

namespace ftr::packed {

PackedBlockFn packed_block_fn_portable(unsigned words) {
  return block_fn_for(words);
}

PackedBlockFn select_block_fn(unsigned words) {
  const CpuFeatures& cpu = cpu_features();
  if (cpu.avx512f) {
    if (PackedBlockFn fn = packed_block_fn_avx512(words)) return fn;
  }
  if (cpu.avx2) {
    if (PackedBlockFn fn = packed_block_fn_avx2(words)) return fn;
  }
  return packed_block_fn_portable(words);
}

}  // namespace ftr::packed
