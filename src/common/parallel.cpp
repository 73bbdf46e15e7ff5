#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ftr {

namespace {

// Hard ceiling on worker counts for both the "all hardware" and the literal
// request path: a typo'd --threads (or a giant host's hardware report)
// must not fork-bomb the process.
constexpr unsigned kMaxWorkers = 256;

// Worker count for this shape: never more workers than chunks.
unsigned workers_for(std::size_t chunks, unsigned threads) {
  return static_cast<unsigned>(
      std::min<std::size_t>(std::max(resolve_threads(threads), 1u),
                            std::max<std::size_t>(chunks, 1)));
}

}  // namespace

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

unsigned resolve_threads(unsigned requested, unsigned hardware) {
  if (requested == 0) {
    return std::min(hardware == 0 ? 1u : hardware, kMaxWorkers);
  }
  return std::min(requested, kMaxWorkers);
}

unsigned resolve_threads(unsigned requested) {
  return resolve_threads(requested, std::thread::hardware_concurrency());
}

std::size_t num_chunks(std::size_t count, std::size_t grain) {
  if (count == 0) return 0;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  return (count + g - 1) / g;
}

std::size_t sweep_grain(std::size_t count, unsigned threads) {
  const unsigned workers = std::max(resolve_threads(threads), 1u);
  const std::size_t target_chunks = static_cast<std::size_t>(workers) * 8;
  if (count == 0) return 1;
  // Ceiling division: grain >= count/target guarantees the chunk count
  // never exceeds the target (floor division yielded grain 1 — and ~2x the
  // targeted chunks — whenever count was just below a multiple of target).
  return std::max<std::size_t>(1, (count + target_chunks - 1) / target_chunks);
}

void ExecutorStats::accumulate(const ExecutorStats& other) {
  workers = std::max(workers, other.workers);
  chunks_local += other.chunks_local;
}

void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t grain, const ChunkBody& body,
                         ExecutorStats* stats) {
  if (stats != nullptr) *stats = {};
  if (count == 0) return;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = num_chunks(count, g);
  const unsigned workers = workers_for(chunks, threads);
  const auto run = [&](std::size_t c, unsigned w) {
    body(c, c * g, std::min(c * g + g, count), w);
  };

  if (workers <= 1) {
    // Inline fast path: no spawns, exceptions propagate directly (the first
    // throw abandons the rest — trivially the lowest failing chunk).
    if (stats != nullptr) stats->workers = 1;
    for (std::size_t c = 0; c < chunks; ++c) {
      run(c, 0);
      if (stats != nullptr) ++stats->chunks_local;
    }
    return;
  }

  // The cursor: the next unclaimed chunk id. A failure moves it past the
  // last chunk, abandoning every unclaimed chunk (the rethrow makes their
  // results unreachable anyway); among the chunks that did fail, the lowest
  // index wins the rethrow.
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> executed{0};
  std::mutex failure_mutex;
  std::size_t failed_chunk = chunks;
  std::exception_ptr failure;
  const auto worker = [&](unsigned w) {
    std::uint64_t ran = 0;
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      try {
        run(c, w);
      } catch (...) {
        next.store(chunks);
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (c < failed_chunk) {
          failed_chunk = c;
          failure = std::current_exception();
        }
      }
      ++ran;
    }
    executed.fetch_add(ran);
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back([&worker, w] { worker(w); });
  }
  worker(0);
  for (auto& t : pool) t.join();

  if (stats != nullptr) {
    stats->workers = workers;
    stats->chunks_local = executed.load();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace ftr
