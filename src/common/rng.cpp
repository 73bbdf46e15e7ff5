#include "common/rng.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/contracts.hpp"

namespace ftr {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  FTR_EXPECTS(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  FTR_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[below(i)]);
  }
  return perm;
}

std::vector<std::size_t> Rng::sample(std::size_t n, std::size_t k) {
  FTR_EXPECTS_MSG(k <= n, "cannot sample " << k << " items from " << n);
  // Floyd's algorithm: iterate j over the last k slots, inserting either a
  // fresh random element or the slot index itself on collision.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(below(j + 1));
    chosen.insert(chosen.count(t) ? j : t);
  }
  std::vector<std::size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  FTR_ENSURES(out.size() == k);
  return out;
}

Rng Rng::split() { return Rng((*this)() ^ 0xd1342543de82ef95ULL); }

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Two splitmix64 finalizations decorrelate (seed, stream_id) pairs; the
  // Rng constructor then runs its own splitmix chain over the mix, so
  // nearby stream ids land in unrelated xoshiro states.
  std::uint64_t a = seed;
  std::uint64_t b = stream_id ^ 0xa0761d6478bd642fULL;
  const std::uint64_t ha = splitmix64(a);
  const std::uint64_t hb = splitmix64(b);
  return Rng(ha ^ rotl(hb, 31));
}

}  // namespace ftr
