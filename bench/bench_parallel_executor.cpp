// Executor microbench: the work-stealing scheduler on uniform and
// deliberately skewed chunk costs. Skew is where stealing is supposed to
// pay — e.g. the request router's mixed-f windows, where one table's sweep
// chunks dwarf its neighbors' checks — while the uniform shape guards
// against the per-pop deque cost regressing the common sweep path.
// items_per_second counts work items per wall-clock second (UseRealTime),
// so on a multi-core host the /threads:N cases show the scaling curve; on
// a 1-core container the thread cases measure scheduling overhead only.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"

namespace {

using namespace ftr;

constexpr std::size_t kItems = 4096;
constexpr std::size_t kGrain = 16;  // 256 chunks

// A few hundred nanoseconds of un-elidable integer work per call.
std::uint64_t spin(std::uint64_t x, std::uint32_t rounds) {
  for (std::uint32_t r = 0; r < rounds; ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Per-item cost in xorshift rounds. Uniform: flat. Skewed: the last eighth
// of the items cost 16x — under the pre-partitioned deques that pins the
// heavy tail on the last worker until thieves relieve it.
std::uint32_t rounds_for(std::size_t item, bool skewed) {
  if (skewed && item >= kItems - kItems / 8) return 16 * 64;
  return 64;
}

void run_case(benchmark::State& state, bool skewed) {
  const auto threads = static_cast<unsigned>(state.range(0));
  // Results land keyed by chunk index — the same index-ordered-reduce shape
  // every real caller uses, so the bench exercises the executor's actual
  // memory pattern.
  std::vector<std::uint64_t> partial(num_chunks(kItems, kGrain), 0);
  std::uint64_t steals = 0, attempts = 0, stolen = 0;
  for (auto _ : state) {
    ExecutorStats stats;
    parallel_for_chunks(
        kItems, threads, kGrain,
        [&partial, skewed](std::size_t chunk, std::size_t begin,
                           std::size_t end) {
          std::uint64_t acc = 0;
          for (std::size_t i = begin; i < end; ++i) {
            acc ^= spin(i + 1, rounds_for(i, skewed));
          }
          partial[chunk] = acc;
        },
        &stats);
    std::uint64_t sum = 0;
    for (const std::uint64_t p : partial) sum ^= p;
    benchmark::DoNotOptimize(sum);
    steals += stats.steals;
    attempts += stats.steal_attempts;
    stolen += stats.chunks_stolen;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kItems));
  state.counters["steals"] = static_cast<double>(steals) / iters;
  state.counters["steal_attempts"] = static_cast<double>(attempts) / iters;
  state.counters["chunks_stolen"] = static_cast<double>(stolen) / iters;
}

void bench_parallel_executor_steal_uniform(benchmark::State& state) {
  run_case(state, /*skewed=*/false);
}
void bench_parallel_executor_steal_skewed(benchmark::State& state) {
  run_case(state, /*skewed=*/true);
}

// UseRealTime: items_per_second must count wall clock, not main-thread CPU
// time, or the spawned workers' progress would be invisible.
BENCHMARK(bench_parallel_executor_steal_uniform)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();
BENCHMARK(bench_parallel_executor_steal_skewed)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  ftr::bench::banner("E23", "work-stealing chunk executor",
                     "scheduling substrate for every sweep/serve fan-out");
  return ftr::bench::run_registered_benchmarks(argc, argv);
}
