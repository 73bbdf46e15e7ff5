// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomized algorithms in ftroute (graph generators, fault sampling,
// adversarial search) take an explicit Rng so experiment runs are replayable
// from a single seed. The engine is xoshiro256** seeded via splitmix64, which
// is fast, passes BigCrush, and is trivially portable.
#pragma once

#include <cstdint>
#include <vector>

namespace ftr {

/// xoshiro256** engine with splitmix64 seeding. Satisfies the
/// UniformRandomBitGenerator requirements so it can also feed <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes by iterating splitmix64 over `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  /// nearly-divisionless rejection method, so results are exactly uniform.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Fisher–Yates shuffle of an index vector 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Uniform random k-subset of {0,...,n-1}, returned sorted.
  /// Implemented with Floyd's algorithm: O(k) expected work.
  std::vector<std::size_t> sample(std::size_t n, std::size_t k);

  /// Splits off an independently-seeded child generator; useful for giving
  /// each parallel experiment arm its own deterministic stream.
  Rng split();

  /// Counter-based stream derivation: a generator that is a pure function
  /// of (seed, stream_id). Unlike split(), which advances the parent state
  /// (so the result depends on how many draws preceded it), stream(s, i) is
  /// stable however work is scheduled — this is what makes randomized
  /// parallel sweeps bit-identical for any thread count: task i always
  /// draws from stream(root_seed, i), no matter which worker runs it.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
};

}  // namespace ftr
