#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/contracts.hpp"

namespace ftr {

namespace {

// Hard ceiling on worker counts for both the "all hardware" and the literal
// request path: a typo'd --threads (or a giant host's hardware report)
// must not fork-bomb the process.
constexpr unsigned kMaxWorkers = 256;

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

unsigned workers_for(std::size_t count, unsigned threads, std::size_t grain) {
  const std::size_t chunks = num_chunks(count, grain);
  return static_cast<unsigned>(
      std::min<std::size_t>(std::max(resolve_threads(threads), 1u),
                            std::max<std::size_t>(chunks, 1)));
}

std::pair<std::size_t, std::size_t> steal_partition(std::size_t chunks,
                                                    unsigned workers,
                                                    unsigned worker) {
  FTR_EXPECTS(workers > 0 && worker < workers);
  const auto w = static_cast<std::size_t>(worker);
  const auto n = static_cast<std::size_t>(workers);
  return {chunks * w / n, chunks * (w + 1) / n};
}

void ExecutorStats::accumulate(const ExecutorStats& other) {
  workers = std::max(workers, other.workers);
  chunks_local += other.chunks_local;
  chunks_stolen += other.chunks_stolen;
  steal_attempts += other.steal_attempts;
  steals += other.steals;
}

namespace {

// Error bookkeeping: once anything failed, remaining chunks are abandoned
// rather than ground through — the rethrow makes their results
// unreachable anyway. Among the chunks that did fail,
// the lowest index wins the rethrow.
struct FailureState {
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::size_t chunk;  // lowest failing chunk index so far
  std::exception_ptr error;

  explicit FailureState(std::size_t chunks) : chunk(chunks) {}

  void record(std::size_t c) {
    failed.store(true, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex);
    if (c < chunk) {
      chunk = c;
      error = std::current_exception();
    }
  }
};

// One worker's deque. Because the owner pops from the front and thieves
// take a contiguous back half (and a thief's own deque is empty when it
// installs the loot), every deque is a single contiguous interval of chunk
// ids at all times — two cursors under a mutex, not a general deque.
// `stolen_origin` marks an interval obtained by stealing, so pops can be
// attributed to ExecutorStats::chunks_local vs chunks_stolen.
struct alignas(64) WorkerDeque {
  std::mutex mutex;
  std::size_t head = 0;
  std::size_t tail = 0;
  bool stolen_origin = false;
};

void run_work_stealing(std::size_t count, std::size_t g, std::size_t chunks,
                       unsigned workers, const ChunkBody& body,
                       ExecutorStats* stats) {
  std::vector<WorkerDeque> deques(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const auto [begin, end] = steal_partition(chunks, workers, w);
    deques[w].head = begin;
    deques[w].tail = end;
  }
  // Chunks sitting in some deque (claimed-but-running chunks excluded). A
  // failed probe round with queued > 0 means a steal raced past us — spin;
  // queued == 0 means no chunk will ever enter a deque again (steals only
  // move queued chunks), so idle workers can retire.
  std::atomic<std::size_t> queued{chunks};
  FailureState failure(chunks);
  std::vector<ExecutorStats> local(workers);

  const auto worker = [&](unsigned w) {
    ExecutorStats& st = local[w];
    WorkerDeque& own = deques[w];
    for (;;) {
      if (failure.failed.load(std::memory_order_relaxed)) return;

      // Drain the front of our own interval.
      std::size_t c = 0;
      bool have = false, stolen = false;
      {
        const std::lock_guard<std::mutex> lock(own.mutex);
        if (own.head < own.tail) {
          c = own.head++;
          stolen = own.stolen_origin;
          have = true;
        }
      }
      if (have) {
        queued.fetch_sub(1, std::memory_order_relaxed);
        try {
          body(c, c * g, std::min(c * g + g, count));
        } catch (...) {
          failure.record(c);
        }
        ++(stolen ? st.chunks_stolen : st.chunks_local);
        continue;
      }

      // Empty: probe victims in the deterministic order (w+1, w+2, ...) mod
      // workers, stealing the back half (rounded up) of the first non-empty
      // interval. Only the victim's lock is held during extraction and only
      // our own during installation — never both, so thieves cannot
      // deadlock on each other. Between the two locks the loot is invisible
      // to other thieves, but `queued` still counts it, so nobody retires.
      bool refilled = false;
      for (unsigned k = 1; k < workers && !refilled; ++k) {
        const unsigned victim = (w + k) % workers;
        ++st.steal_attempts;
        std::size_t loot_begin = 0, loot_end = 0;
        {
          const std::lock_guard<std::mutex> lock(deques[victim].mutex);
          const std::size_t avail = deques[victim].tail - deques[victim].head;
          if (avail == 0) continue;
          const std::size_t take = avail - avail / 2;
          loot_end = deques[victim].tail;
          loot_begin = loot_end - take;
          deques[victim].tail = loot_begin;
        }
        ++st.steals;
        const std::lock_guard<std::mutex> lock(own.mutex);
        own.head = loot_begin;
        own.tail = loot_end;
        own.stolen_origin = true;
        refilled = true;
      }
      if (refilled) continue;
      if (queued.load(std::memory_order_relaxed) == 0) return;
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned i = 1; i < workers; ++i) {
    pool.emplace_back([&worker, i] { worker(i); });
  }
  worker(0);
  for (auto& t : pool) t.join();

  if (stats != nullptr) {
    *stats = {};
    for (const auto& st : local) stats->accumulate(st);
    stats->workers = workers;
  }
  if (failure.error) std::rethrow_exception(failure.error);
}

}  // namespace

void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t grain, const ChunkBody& body,
                         ExecutorStats* stats) {
  if (stats != nullptr) *stats = {};
  if (count == 0) return;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const std::size_t chunks = num_chunks(count, g);
  const unsigned workers = workers_for(count, threads, g);

  if (workers <= 1) {
    // Inline fast path: no spawns, exceptions propagate directly (the first
    // throw abandons the rest — trivially the lowest failing chunk).
    if (stats != nullptr) stats->workers = 1;
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c, c * g, std::min(c * g + g, count));
      if (stats != nullptr) ++stats->chunks_local;
    }
    return;
  }

  run_work_stealing(count, g, chunks, workers, body, stats);
}

}  // namespace ftr
