// The deterministic execution layer under the fault sweeps: chunked
// parallel-for with index-keyed results, and counter-based Rng streams.
// These are the two primitives the "bit-identical for any thread count"
// guarantee rests on, so they get direct coverage here; the end-to-end
// guarantee is exercised in test_fault_sweep.cpp.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace ftr {
namespace {

TEST(Parallel, ResolveThreads) {
  EXPECT_GE(hardware_threads(), 1u);
  EXPECT_EQ(resolve_threads(0), std::min(hardware_threads(), 256u));
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(100000), 256u);  // fork-bomb guard
}

TEST(Parallel, ResolveThreadsPureMapping) {
  // The injected-hardware seam pins every branch of the mapping, including
  // the one a live host can't fake: hardware_concurrency() reporting 0
  // ("unknown") must fall back to exactly 1 worker, never 0.
  EXPECT_EQ(resolve_threads(0, 0), 1u);
  EXPECT_EQ(resolve_threads(0, 1), 1u);
  EXPECT_EQ(resolve_threads(0, 8), 8u);

  // An explicit request is honored literally even ABOVE the hardware count:
  // oversubscription is deliberate (the determinism suites run threads=8 on
  // 1-core hosts to vary scheduling), and a known hardware count must not
  // silently shrink it...
  EXPECT_EQ(resolve_threads(8, 1), 8u);
  EXPECT_EQ(resolve_threads(3, 2), 3u);

  // ...up to the 256 cap, which binds regardless of the hardware report.
  EXPECT_EQ(resolve_threads(256, 4), 256u);
  EXPECT_EQ(resolve_threads(257, 4), 256u);
  EXPECT_EQ(resolve_threads(100000, 0), 256u);

  // The cap binds on the "all hardware" branch too: requested == 0 on a
  // host reporting > 256 threads must clamp exactly like an explicit
  // request would (the documented fork-bomb guard used to leak here and
  // return the raw hardware count).
  EXPECT_EQ(resolve_threads(0, 256), 256u);
  EXPECT_EQ(resolve_threads(0, 257), 256u);
  EXPECT_EQ(resolve_threads(0, 1024), 256u);
  EXPECT_EQ(resolve_threads(0, ~0u), 256u);

  // The one-argument form is the same mapping over the live hardware count.
  EXPECT_EQ(resolve_threads(5), resolve_threads(5, hardware_threads()));
  EXPECT_EQ(resolve_threads(0),
            resolve_threads(0, std::thread::hardware_concurrency()));
}

TEST(Parallel, SweepGrainTargetsEightChunksPerWorker) {
  // sweep_grain aims for ~8 chunks per worker. Ceiling division keeps the
  // realized chunk count inside the [target/2, target] envelope whenever
  // count >= target; floor division used to overshoot to ~2x the target
  // (e.g. count = 16*workers - 1 => grain 1).
  for (unsigned threads : {1u, 2u, 4u, 8u, 37u}) {
    const std::size_t target = static_cast<std::size_t>(threads) * 8;
    for (std::size_t count :
         {target, target + 1, 2 * target - 1, 2 * target, 2 * target + 1,
          16 * static_cast<std::size_t>(threads) - 1, 1000 * target + 13}) {
      const std::size_t grain = sweep_grain(count, threads);
      const std::size_t chunks = num_chunks(count, grain);
      EXPECT_LE(chunks, target) << "count=" << count << " threads=" << threads;
      EXPECT_GE(chunks, target / 2)
          << "count=" << count << " threads=" << threads;
      // Coverage: the chunks tile [0, count).
      EXPECT_GE(chunks * grain, count);
    }
    // Below the target there is nothing to batch: one item per chunk.
    EXPECT_EQ(sweep_grain(target - 1, threads), 1u);
    EXPECT_EQ(num_chunks(target - 1, sweep_grain(target - 1, threads)),
              target - 1);
  }
  // The regression shape from the bug report: count = 16*workers - 1 now
  // yields grain 2 -> exactly 8 chunks/worker instead of ~16.
  EXPECT_EQ(sweep_grain(16 * 4 - 1, 4), 2u);
  EXPECT_EQ(num_chunks(16 * 4 - 1, sweep_grain(16 * 4 - 1, 4)), 32u);
}

TEST(Parallel, CoversEveryIndexOnceAndCountsChunks) {
  // Every index exactly once, chunk boundaries a function of (count, grain)
  // only, and every executed chunk counted.
  for (unsigned threads : {2u, 8u}) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    ExecutorStats stats;
    parallel_for_chunks(hits.size(), threads, 7,
                        [&](std::size_t chunk, std::size_t begin,
                            std::size_t end, unsigned) {
                          EXPECT_EQ(begin, chunk * 7);
                          for (std::size_t i = begin; i < end; ++i) {
                            ++hits[i];
                          }
                        },
                        &stats);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(stats.workers, threads);
    EXPECT_EQ(stats.chunks_local, num_chunks(hits.size(), 7));
    EXPECT_EQ(stats.chunks_stolen, 0u);
    EXPECT_EQ(stats.steals, 0u);
    EXPECT_EQ(stats.steal_attempts, 0u);
  }
}

TEST(Parallel, StatsInlinePath) {
  ExecutorStats stats;
  parallel_for_chunks(
      100, 1, 10, [](std::size_t, std::size_t, std::size_t, unsigned) {},
      &stats);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.chunks_local, 10u);
  EXPECT_EQ(stats.chunks_stolen, 0u);
  EXPECT_EQ(stats.steal_attempts, 0u);

  // count == 0: stats are cleared, not left stale.
  stats.chunks_local = 99;
  parallel_for_chunks(
      0, 8, 1, [](std::size_t, std::size_t, std::size_t, unsigned) {},
      &stats);
  EXPECT_EQ(stats.chunks_local, 0u);
}

TEST(Parallel, StatsAccumulate) {
  ExecutorStats total;
  ExecutorStats a;
  a.workers = 2;
  a.chunks_local = 10;
  ExecutorStats b;
  b.workers = 4;
  b.chunks_local = 5;
  total.accumulate(a);
  total.accumulate(b);
  EXPECT_EQ(total.workers, 4u);
  EXPECT_EQ(total.chunks_local, 15u);
}

TEST(Parallel, SlowChunkDoesNotHoldBackTheRest) {
  // Chunk 0 blocks for 200 ms; the other workers must run all 15 other
  // chunks before it returns.
  const unsigned threads = 4;
  const std::size_t chunks = 16;
  std::atomic<std::size_t> done_before_zero{0};
  std::atomic<bool> zero_returned{false};
  parallel_for_chunks(chunks, threads, 1,
                      [&](std::size_t chunk, std::size_t, std::size_t,
                          unsigned) {
                        if (chunk == 0) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(200));
                          zero_returned = true;
                        } else if (!zero_returned) {
                          ++done_before_zero;
                        }
                      });
  EXPECT_EQ(done_before_zero.load(), chunks - 1);
}

TEST(Parallel, EachWorkerClaimsAscendingChunks) {
  // Workers claim chunks from one cursor in index order, so the chunks any
  // one worker runs are strictly ascending; worker ids stay below the
  // worker count, and the lists together hold every chunk exactly once.
  for (unsigned threads : {2u, 4u, 8u}) {
    const std::size_t chunks = 200;
    std::vector<std::vector<std::size_t>> ran(threads);
    ExecutorStats stats;
    parallel_for_chunks(chunks, threads, 1,
                        [&](std::size_t chunk, std::size_t, std::size_t,
                            unsigned worker) {
                          ASSERT_LT(worker, threads);
                          ran[worker].push_back(chunk);
                        },
                        &stats);
    std::vector<int> seen(chunks, 0);
    for (unsigned w = 0; w < threads; ++w) {
      if (!ran[w].empty()) {
        EXPECT_LT(w, stats.workers);
      }
      for (std::size_t k = 0; k < ran[w].size(); ++k) {
        if (k > 0) {
          EXPECT_LT(ran[w][k - 1], ran[w][k]) << "worker " << w;
        }
        ++seen[ran[w][k]];
      }
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(seen[c], 1) << "chunk " << c;
    }
  }
}

TEST(Parallel, NumChunks) {
  EXPECT_EQ(num_chunks(0, 4), 0u);
  EXPECT_EQ(num_chunks(10, 4), 3u);
  EXPECT_EQ(num_chunks(12, 4), 3u);
  EXPECT_EQ(num_chunks(5, 0), 5u);  // grain 0 = one chunk per item
}

TEST(Parallel, SweepGrainDeterministic) {
  EXPECT_EQ(sweep_grain(1000, 4), sweep_grain(1000, 4));
  EXPECT_GE(sweep_grain(1, 8), 1u);
  EXPECT_GE(sweep_grain(0, 8), 1u);
}

TEST(Parallel, EveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
      for (std::size_t grain : {1u, 3u, 64u, 5000u}) {
        std::vector<std::atomic<int>> hits(count);
        parallel_for_chunks(count, threads, grain,
                            [&](std::size_t chunk, std::size_t begin,
                                std::size_t end, unsigned) {
                              EXPECT_EQ(begin, chunk * std::max<std::size_t>(
                                                           grain, 1));
                              EXPECT_LE(end, count);
                              for (std::size_t i = begin; i < end; ++i) {
                                ++hits[i];
                              }
                            });
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
      }
    }
  }
}

TEST(Parallel, ChunkBoundariesIndependentOfThreads) {
  // The chunk id -> range mapping must be a function of (count, grain)
  // only; record it serially and compare under contention.
  const std::size_t count = 101, grain = 7;
  std::vector<std::pair<std::size_t, std::size_t>> serial(
      num_chunks(count, grain));
  parallel_for_chunks(
      count, 1, grain,
      [&](std::size_t c, std::size_t b, std::size_t e, unsigned) {
        serial[c] = {b, e};
      });
  std::vector<std::pair<std::size_t, std::size_t>> parallel(
      num_chunks(count, grain));
  parallel_for_chunks(
      count, 8, grain,
      [&](std::size_t c, std::size_t b, std::size_t e, unsigned) {
        parallel[c] = {b, e};
      });
  EXPECT_EQ(serial, parallel);
}

TEST(Parallel, SumMatchesSerial) {
  const std::size_t count = 12345;
  std::vector<std::uint64_t> partial(num_chunks(count, 100), 0);
  parallel_for_chunks(
      count, 8, 100,
      [&](std::size_t c, std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) partial[c] += i;
      });
  const auto total =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(count) * (count - 1) / 2);
}

TEST(Parallel, PropagatesException) {
  for (unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        parallel_for_chunks(100, threads, 10,
                            [](std::size_t chunk, std::size_t, std::size_t,
                               unsigned) {
                              if (chunk == 3) throw std::runtime_error("boom");
                            }),
        std::runtime_error);
  }
}

// Runs a throwing body and returns the chunk index carried by the rethrown
// exception plus the set of chunks that actually threw (the abandonment
// discipline makes that set scheduling-dependent; the contract is that the
// rethrown index is its minimum).
struct FailureProbe {
  std::size_t rethrown = ~std::size_t{0};
  std::vector<std::size_t> threw;
  std::uint64_t executed = 0;
  ExecutorStats stats;
};

FailureProbe run_failing(std::size_t chunks, unsigned threads,
                         const std::function<bool(std::size_t)>& should_throw,
                         const std::function<void(std::size_t)>& pre = {}) {
  std::vector<std::atomic<int>> thrown(chunks);
  for (auto& t : thrown) t = 0;
  std::atomic<std::uint64_t> executed{0};
  FailureProbe probe;
  try {
    parallel_for_chunks(chunks, threads, 1,
                        [&](std::size_t chunk, std::size_t, std::size_t,
                            unsigned) {
                          executed.fetch_add(1);
                          if (pre) pre(chunk);
                          if (should_throw(chunk)) {
                            thrown[chunk] = 1;
                            throw std::runtime_error(std::to_string(chunk));
                          }
                        },
                        &probe.stats);
  } catch (const std::runtime_error& e) {
    probe.rethrown = std::stoul(e.what());
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    if (thrown[c].load() != 0) probe.threw.push_back(c);
  }
  probe.executed = executed.load();
  return probe;
}

TEST(Parallel, RethrowsLowestFailingChunk) {
  // Every chunk throws; whatever subset ran before the abandonment kicked
  // in, the rethrown exception must carry the lowest chunk index among
  // those that actually threw.
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto probe =
        run_failing(64, threads, [](std::size_t) { return true; });
    ASSERT_FALSE(probe.threw.empty());
    EXPECT_EQ(probe.rethrown, probe.threw.front());
  }
}

TEST(Parallel, RethrowsLowestAmongConcurrentFailures) {
  // Only the back half of the chunk space throws (the front half does real
  // work first), so failures race each other across workers;
  // the merge rule — lowest failing chunk wins — must hold regardless.
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto probe = run_failing(
        64, 8, [](std::size_t chunk) { return chunk >= 32; },
        [](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    ASSERT_FALSE(probe.threw.empty());
    EXPECT_EQ(probe.rethrown, probe.threw.front());
    EXPECT_GE(probe.rethrown, 32u);
  }
}

TEST(Parallel, ThrowOnSpawnedWorkerRethrowsOnCaller) {
  // Worker 0 (the calling thread) sleeps through its chunk while the
  // spawned workers run the rest, and the first chunk a spawned worker runs
  // throws. The throw happens on a spawned thread; it must still surface on
  // the caller with the failing chunk's index. (Stats are written even on
  // the throwing path — that is part of the contract.)
  const std::size_t chunks = 16;
  std::atomic<bool> armed{true};
  std::atomic<std::size_t> thrower{chunks};
  std::size_t rethrown = chunks + 1;
  ExecutorStats stats;
  try {
    parallel_for_chunks(chunks, 4, 1,
                        [&](std::size_t chunk, std::size_t, std::size_t,
                            unsigned worker) {
                          if (worker == 0) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(200));
                          } else if (armed.exchange(false)) {
                            thrower = chunk;
                            throw std::runtime_error(std::to_string(chunk));
                          }
                        },
                        &stats);
  } catch (const std::runtime_error& e) {
    rethrown = std::stoul(e.what());
  }
  ASSERT_LT(thrower.load(), chunks);
  EXPECT_EQ(rethrown, thrower.load());
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_GE(stats.chunks_local, 1u);
}

TEST(Parallel, AbandonsClaimedRangesAfterFailure) {
  // One early throw must abandon the still-queued chunks — each worker may
  // finish the chunk it is executing, but nobody starts a fresh one after
  // observing the failure. With slow bodies, far fewer than `chunks` bodies
  // can have started.
  const std::size_t chunks = 64;
  const auto probe = run_failing(
      chunks, 4, [](std::size_t chunk) { return chunk % 16 == 1; },
      [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      });
  ASSERT_FALSE(probe.threw.empty());
  EXPECT_EQ(probe.rethrown, probe.threw.front());
  EXPECT_LT(probe.executed, chunks);
}

TEST(RngStream, PureFunctionOfSeedAndId) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStream, DistinctStreamsDiffer) {
  // Adjacent stream ids (the common case: task indices) must decorrelate.
  Rng a = Rng::stream(42, 0);
  Rng b = Rng::stream(42, 1);
  Rng c = Rng::stream(43, 0);
  int equal_ab = 0, equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a();
    equal_ab += (va == b()) ? 1 : 0;
    equal_ac += (va == c()) ? 1 : 0;
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_ac, 0);
}

TEST(RngStream, IndependentOfCallContext) {
  // Drawing from one stream must not perturb another (no hidden shared
  // state), unlike split() which advances its parent.
  Rng reference = Rng::stream(9, 5);
  const auto r0 = reference();
  Rng noise = Rng::stream(9, 4);
  for (int i = 0; i < 17; ++i) noise();
  Rng again = Rng::stream(9, 5);
  EXPECT_EQ(again(), r0);
}

}  // namespace
}  // namespace ftr
