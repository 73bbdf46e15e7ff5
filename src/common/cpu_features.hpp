// Runtime CPU feature detection and packed-lane-width resolution.
//
// The packed SRG kernel evaluates 64 Gray-adjacent fault sets per
// machine word and widens to 128/256/512 sets per block by striding 2,
// 4, or 8 words per entity (see fault/srg_packed.hpp). Which width pays
// off depends on the vector ISA the host actually has, so the choice is
// made at RUNTIME, once, from cpuid — never from compile flags — and
// every width produces bit-identical results, so the resolution below
// is a pure throughput choice. No flag or environment variable overrides
// it; only the differential tests and the kernel benches pin a width, per
// scratch (SrgScratch::set_lane_width), to cover every instantiation.
//
// Resolution rule (resolve_lane_width):
//   * an explicit request (64/128/256/512) is honored verbatim;
//   * 0 ("auto") picks the widest profitable width for the probed ISA:
//     512 with AVX-512F, 256 with AVX2, else 128 (two-word blocks still
//     win on plain x86-64/NEON-less builds because the word loops unroll).
#pragma once

#include <cstdint>

namespace ftr {

/// One-time cpuid probe, cached for the process lifetime. On non-x86
/// builds every flag is false and auto resolution falls back to 128.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
};

const CpuFeatures& cpu_features();

/// True iff `lanes` is a width the packed kernel implements.
bool is_valid_lane_width(unsigned lanes);

/// Applies the resolution rule above. `requested` must be 0 (auto) or a
/// valid width (contract violation otherwise). Always returns a valid
/// width.
unsigned resolve_lane_width(unsigned requested);

/// Lanes in the widest packed block. Every valid width divides it, so a run
/// of Gray ranks whose length is a multiple of it splits into full blocks at
/// any width.
inline constexpr unsigned kMaxLaneWidth = 512;

/// `items` rounded up to a positive multiple of kMaxLaneWidth: the chunk
/// grain of every exhaustive Gray scan, so that no chunk but the scan's last
/// ends in a partial block (which costs as much as a full one).
constexpr std::uint64_t lane_aligned(std::uint64_t items) {
  const std::uint64_t blocks = (items + kMaxLaneWidth - 1) / kMaxLaneWidth;
  return (blocks == 0 ? 1 : blocks) * kMaxLaneWidth;
}

}  // namespace ftr
