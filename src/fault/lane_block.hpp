// LaneBlock<W>: W little-endian words of packed evaluation lanes — the
// value type of the width-parameterized packed SRG kernel. Lane l lives
// in bit (l % 64) of word (l / 64), so W ∈ {1, 2, 4, 8} gives
// 64/128/256/512 Gray-adjacent fault sets per block.
//
// TEXTUAL FRAGMENT, not a standalone header: srg_packed_impl.hpp
// includes this file inside the ANONYMOUS namespace of each per-ISA
// translation unit (portable / -mavx2 / -mavx512f), so every TU gets
// its own internal-linkage copy compiled with its own ISA flags and
// the linker can never ODR-merge AVX codegen into the portable path.
// For the same reason the fragment must not call any std:: function
// templates — only builtins, intrinsics and raw loops.
//
// A block is held in the widest vector registers the enclosing TU's ISA
// offers for W words, and every bulk op (AND, OR, XOR, ANDNOT, load,
// store, zero, ones, the any-lane test) is written against those
// registers explicitly:
//   * W = 8 under AVX-512F — one zmm register;
//   * W = 4 under AVX2, and W = 8 under AVX2 without AVX-512F — one or
//     two ymm registers;
//   * everything else — plain 64-bit words.
// Plain word loops are not enough: even with W known at compile time, g++
// emitted most of the kernel's AND/OR/ANDNOT combines in the -mavx512f
// unit as scalar 64-bit ops (objdump of run_block<8>: 114 scalar and/or/
// andn against 80 zmm instructions). Memory arrays stay plain uint64_t
// words (unaligned loads/stores), so the scratch layout is the same in
// every TU.
#if !defined(FTR_LANE_BLOCK_FRAGMENT)
#error "lane_block.hpp is a fragment; include it via srg_packed_impl.hpp"
#endif

// One register's worth of lanes and its ops. Ops::andnot(a, b) is a & ~b.
struct WordOps {
  using V = std::uint64_t;
  static constexpr unsigned kWords = 1;
  static inline V load(const std::uint64_t* p) { return *p; }
  static inline void store(std::uint64_t* p, V a) { *p = a; }
  static inline V zero() { return 0; }
  static inline V ones() { return ~V{0}; }
  static inline V and_(V a, V b) { return a & b; }
  static inline V or_(V a, V b) { return a | b; }
  static inline V xor_(V a, V b) { return a ^ b; }
  static inline V andnot(V a, V b) { return a & ~b; }
  static inline bool any(V a) { return a != 0; }
};

#if defined(__AVX2__)
struct YmmOps {
  using V = __m256i;
  static constexpr unsigned kWords = 4;
  static inline V load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static inline void store(std::uint64_t* p, V a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static inline V zero() { return _mm256_setzero_si256(); }
  static inline V ones() { return _mm256_set1_epi64x(-1); }
  static inline V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static inline V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static inline V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  static inline V andnot(V a, V b) { return _mm256_andnot_si256(b, a); }
  static inline bool any(V a) { return _mm256_testz_si256(a, a) == 0; }
};
#endif

#if defined(__AVX512F__)
struct ZmmOps {
  using V = __m512i;
  static constexpr unsigned kWords = 8;
  static inline V load(const std::uint64_t* p) {
    return _mm512_loadu_si512(static_cast<const void*>(p));
  }
  static inline void store(std::uint64_t* p, V a) {
    _mm512_storeu_si512(static_cast<void*>(p), a);
  }
  static inline V zero() { return _mm512_setzero_si512(); }
  static inline V ones() { return _mm512_set1_epi64(-1); }
  static inline V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static inline V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static inline V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  // Spelled as a & (b ^ ~0), which g++ folds into one vpandnq:
  // _mm512_andnot_si512 trips g++ 12's -Wmaybe-uninitialized through its
  // _mm512_undefined_epi32() operand, and CI builds with -Werror.
  static inline V andnot(V a, V b) { return and_(a, xor_(b, ones())); }
  static inline bool any(V a) { return _mm512_test_epi64_mask(a, a) != 0; }
};
#endif

// The register type W words are held in under this TU's ISA.
template <unsigned W>
struct LaneOps {
  using type = WordOps;
};
#if defined(__AVX512F__)
template <>
struct LaneOps<8> {
  using type = ZmmOps;
};
#elif defined(__AVX2__)
template <>
struct LaneOps<8> {
  using type = YmmOps;
};
#endif
#if defined(__AVX2__)
template <>
struct LaneOps<4> {
  using type = YmmOps;
};
#endif

template <unsigned W>
struct LaneBlock {
  static_assert(W == 1 || W == 2 || W == 4 || W == 8,
                "packed lane blocks come in 1/2/4/8 words");
  using Ops = typename LaneOps<W>::type;
  static constexpr unsigned kRegs = W / Ops::kWords;

  typename Ops::V r[kRegs];

  static inline LaneBlock zero() {
    LaneBlock b;
    for (unsigned i = 0; i < kRegs; ++i) b.r[i] = Ops::zero();
    return b;
  }

  static inline LaneBlock ones() {
    LaneBlock b;
    for (unsigned i = 0; i < kRegs; ++i) b.r[i] = Ops::ones();
    return b;
  }

  static inline LaneBlock load(const std::uint64_t* p) {
    LaneBlock b;
    for (unsigned i = 0; i < kRegs; ++i) {
      b.r[i] = Ops::load(p + i * Ops::kWords);
    }
    return b;
  }

  inline void store(std::uint64_t* p) const {
    for (unsigned i = 0; i < kRegs; ++i) {
      Ops::store(p + i * Ops::kWords, r[i]);
    }
  }

  /// The mask with lanes [0, count) set; count must be in 1..64*W.
  static inline LaneBlock first_lanes(std::size_t count) {
    std::uint64_t w[W];
    for (unsigned i = 0; i < W; ++i) {
      const std::size_t base = std::size_t{64} * i;
      if (count >= base + 64) {
        w[i] = ~std::uint64_t{0};
      } else if (count > base) {
        w[i] = (std::uint64_t{1} << (count - base)) - 1;
      } else {
        w[i] = 0;
      }
    }
    return load(w);
  }

  /// True iff any lane bit is set. This is the packed kernel's branch
  /// workhorse (skip dead arcs, detect first touch, early-exit scans).
  inline bool any() const {
    typename Ops::V acc = r[0];
    for (unsigned i = 1; i < kRegs; ++i) acc = Ops::or_(acc, r[i]);
    return Ops::any(acc);
  }

  inline bool none() const { return !any(); }

  friend inline LaneBlock operator&(LaneBlock a, LaneBlock b) {
    for (unsigned i = 0; i < kRegs; ++i) a.r[i] = Ops::and_(a.r[i], b.r[i]);
    return a;
  }

  friend inline LaneBlock operator|(LaneBlock a, LaneBlock b) {
    for (unsigned i = 0; i < kRegs; ++i) a.r[i] = Ops::or_(a.r[i], b.r[i]);
    return a;
  }

  friend inline LaneBlock operator^(LaneBlock a, LaneBlock b) {
    for (unsigned i = 0; i < kRegs; ++i) a.r[i] = Ops::xor_(a.r[i], b.r[i]);
    return a;
  }

  /// a & ~b — one vpandn on vector ISAs; the kernel's hot combine.
  friend inline LaneBlock andnot(LaneBlock a, LaneBlock b) {
    for (unsigned i = 0; i < kRegs; ++i) a.r[i] = Ops::andnot(a.r[i], b.r[i]);
    return a;
  }

  friend inline bool operator==(LaneBlock a, LaneBlock b) {
    return (a ^ b).none();
  }

  /// Calls fn(lane) for every set lane, ascending. Scalar by design, so
  /// the kernel only uses it on per-block read-outs, never per pair or
  /// per BFS level.
  template <typename Fn>
  inline void for_each_lane(Fn&& fn) const {
    std::uint64_t w[W];
    store(w);
    for (unsigned i = 0; i < W; ++i) {
      std::uint64_t m = w[i];
      while (m != 0) {
        fn(std::size_t{64} * i +
           static_cast<std::size_t>(__builtin_ctzll(m)));
        m &= m - 1;
      }
    }
  }
};
