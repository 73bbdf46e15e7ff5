#include "dist/coordinator.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "common/combinatorics.hpp"
#include "common/contracts.hpp"
#include "common/cpu_features.hpp"
#include "common/pipe_io.hpp"
#include "dist/worker.hpp"

namespace ftr {

namespace {

using Clock = std::chrono::steady_clock;

// Cuts `source` into kSweepExplicit units of up to `step` sets each, whose
// global windows run on from base.begin; every other field is copied from
// `base`. `source` must outlive the feed; the coordinator reads it on its
// one thread.
SweepUnitFeed explicit_unit_feed(FaultSetSource& source, const UnitSpec& base,
                                 std::uint64_t step) {
  FTR_EXPECTS(step > 0);
  UnitSpec first = base;
  first.kind = UnitKind::kSweepExplicit;
  first.sets.clear();
  return [&source, unit = std::move(first), step,
          set = std::vector<Node>{}]() mutable -> std::optional<UnitSpec> {
    UnitSpec u = unit;
    while (u.sets.size() < step && source.next(set)) u.sets.push_back(set);
    if (u.sets.empty()) return std::nullopt;
    u.begin = unit.begin;
    u.end = u.begin + u.sets.size();
    unit.begin = u.end;
    return u;
  };
}

}  // namespace

struct DistSweepPool::Worker {
  pid_t pid = -1;
  int to_fd = -1;    // coordinator -> worker (unit frames), O_NONBLOCK
  int from_fd = -1;  // worker -> coordinator (result frames), O_NONBLOCK
  unsigned index = 0;
  bool alive = false;
  bool busy = false;
  std::optional<UnitSpec> unit;  // in flight, kept verbatim for re-dispatch
  std::vector<unsigned char> tx;
  std::size_t tx_off = 0;
  std::vector<unsigned char> rx;
  Clock::time_point dispatched_at{};
  Clock::time_point deadline = Clock::time_point::max();
};

DistSweepPool::DistSweepPool(const TableSnapshot& snapshot,
                             std::string snapshot_path,
                             const DistPoolOptions& options)
    : snapshot_(&snapshot),
      snapshot_path_(std::move(snapshot_path)),
      options_(options) {
  FTR_EXPECTS_MSG(options_.workers >= 1,
                  "a distributed pool needs at least one worker");
  FTR_EXPECTS(snapshot_->index != nullptr);
  stats_.per_worker.resize(options_.workers);
  spawn_workers();
}

void DistSweepPool::child_main(int in_fd, int out_fd, unsigned index) {
  int code = 8;
  try {
    const TableSnapshot snap =
        snapshot_path_.empty()
            ? load_table_snapshot_fd(payload_fd_, "<snapshot payload fd>")
            : load_table_snapshot_file(snapshot_path_);
    code = run_worker_loop(in_fd, out_fd, snap, index);
  } catch (const std::exception& e) {
    // A worker that cannot even load the table reports why before dying;
    // the coordinator surfaces the message instead of a bare dead pipe.
    const auto reply = pack_frame(FrameType::kError,
                                  encode_error(~std::uint64_t{0}, e.what()));
    (void)write_exact(out_fd, reply.data(), reply.size());
    code = 9;
  }
  // _exit, not exit: the child must not flush the parent's inherited stdio
  // buffers or run its atexit hooks.
  ::_exit(code);
}

void DistSweepPool::spawn_workers() {
  ignore_sigpipe();
  if (snapshot_path_.empty()) {
    // Serialize ONCE; every child inherits the unlinked fd and loads with
    // positional reads, so one shared file description is race-free.
    const std::string bytes = table_snapshot_to_string(*snapshot_);
    payload_fd_ = open_unlinked_temp();
    FTR_EXPECTS_MSG(
        write_exact(payload_fd_, bytes.data(), bytes.size()) == IoStatus::kOk,
        "failed to stage the snapshot payload for the workers");
  }

  struct Pipes {
    int to[2] = {-1, -1};
    int from[2] = {-1, -1};
  };
  std::vector<Pipes> pipes(options_.workers);
  for (auto& p : pipes) {
    FTR_EXPECTS_MSG(::pipe(p.to) == 0 && ::pipe(p.from) == 0,
                    "pipe() failed spawning the worker pool");
  }

  workers_.resize(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    const pid_t pid = ::fork();
    FTR_EXPECTS_MSG(pid >= 0, "fork() failed spawning worker " << i);
    if (pid == 0) {
      // Child: keep only this worker's ends (and the payload fd). Closing
      // the other workers' pipe ends matters for liveness — a sibling's
      // write end held open here would mask its EOF forever.
      for (unsigned j = 0; j < options_.workers; ++j) {
        ::close(pipes[j].to[1]);
        ::close(pipes[j].from[0]);
        if (j != i) {
          ::close(pipes[j].to[0]);
          ::close(pipes[j].from[1]);
        }
      }
      child_main(pipes[i].to[0], pipes[i].from[1], i);
    }
    workers_[i].pid = pid;
    workers_[i].index = i;
  }
  for (unsigned i = 0; i < options_.workers; ++i) {
    ::close(pipes[i].to[0]);
    ::close(pipes[i].from[1]);
    workers_[i].to_fd = pipes[i].to[1];
    workers_[i].from_fd = pipes[i].from[0];
    set_nonblocking(workers_[i].to_fd, true);
    set_nonblocking(workers_[i].from_fd, true);
    workers_[i].alive = true;
  }
  stats_.workers_spawned = options_.workers;
}

DistSweepPool::~DistSweepPool() {
  // EOF on the unit pipes is the shutdown signal; idle workers exit
  // immediately. Grace-period reap, then the hammer — a wedged child must
  // not wedge us.
  for (auto& w : workers_) {
    if (w.to_fd >= 0) {
      ::close(w.to_fd);
      w.to_fd = -1;
    }
  }
  for (auto& w : workers_) {
    if (w.pid > 0) {
      bool reaped = false;
      for (int i = 0; i < 200 && !reaped; ++i) {
        if (try_reap_child(w.pid).has_value()) {
          reaped = true;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      if (!reaped) kill_and_reap(w.pid);
      w.pid = -1;
    }
    if (w.from_fd >= 0) {
      ::close(w.from_fd);
      w.from_fd = -1;
    }
  }
  if (payload_fd_ >= 0) {
    ::close(payload_fd_);
    payload_fd_ = -1;
  }
}

unsigned DistSweepPool::live_workers() const {
  unsigned live = 0;
  for (const auto& w : workers_) live += w.alive ? 1 : 0;
  return live;
}

std::uint64_t DistSweepPool::auto_unit_items(std::uint64_t total) const {
  if (options_.unit_items > 0) return options_.unit_items;
  const std::uint64_t slots = std::uint64_t{options_.workers} * 8;
  const std::uint64_t per =
      std::clamp<std::uint64_t>((total + slots - 1) / slots, 1, 65536);
  // Every kind runs packed blocks (Gray blocks, any-set blocks of samples
  // or literal sets): whole blocks only, so that no unit but the last ends
  // in a partial one.
  return lane_aligned(per);
}

SweepPartial DistSweepPool::fold(const UnitFeed& feed) {
  // Results merge as they land (merge_sweep_partials is order-free);
  // merged[id] records that unit id's one merge.
  SweepPartial total;
  std::vector<bool> merged;
  std::uint64_t next_id = 0;
  bool feed_done = false;
  std::deque<UnitSpec> retry;
  std::size_t outstanding = 0;

  const bool has_timeout = options_.unit_timeout_sec > 0;
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(options_.unit_timeout_sec, 0.0)));

  auto store = [&](std::uint64_t id, const SweepPartial& p) {
    FTR_EXPECTS_MSG(id < merged.size() && !merged[id],
                    "distributed run merged unit " << id << " twice");
    merged[id] = true;
    merge_sweep_partials(total, p);
  };

  auto take_next = [&]() -> std::optional<UnitSpec> {
    if (!retry.empty()) {
      UnitSpec u = std::move(retry.front());
      retry.pop_front();
      return u;
    }
    if (feed_done) return std::nullopt;
    auto u = feed();
    if (!u.has_value()) {
      feed_done = true;
      return std::nullopt;
    }
    u->unit_id = next_id++;
    merged.push_back(false);
    return u;
  };

  auto run_inline = [&](const UnitSpec& unit) {
    store(unit.unit_id, execute_unit(*snapshot_->index, unit));
    ++stats_.units_inline;
  };

  auto release_unit = [&](Worker& w) {
    w.busy = false;
    w.unit.reset();
    w.deadline = Clock::time_point::max();
    --outstanding;
  };

  // Tears a lost worker down: closes both pipes, reaps the child (kill it
  // first, or only when a plain reap finds it still running), and drops its
  // buffers. The caller counts the loss and settles the in-flight unit.
  auto retire_worker = [](Worker& w, bool kill) {
    w.alive = false;
    for (int* fd : {&w.to_fd, &w.from_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    if (w.pid > 0) {
      if (kill || !try_reap_child(w.pid).has_value()) kill_and_reap(w.pid);
      w.pid = -1;
    }
    w.tx.clear();
    w.tx_off = 0;
    w.rx.clear();
  };

  // The worker is gone (EOF, EPIPE, read error): reap it and requeue its
  // in-flight unit at the front so survivors pick it up first.
  auto on_worker_death = [&](Worker& w) {
    if (!w.alive) return;
    retire_worker(w, /*kill=*/false);
    ++stats_.workers_exited;
    if (w.busy) {
      ++stats_.units_retried;
      retry.push_front(std::move(*w.unit));
      release_unit(w);
    }
  };

  // Hung past the deadline: SIGKILL, then run the unit inline. Inline (not
  // requeue) on purpose — a unit that times out on a worker would time out
  // on the next one too, and the coordinator must make progress.
  auto on_worker_timeout = [&](Worker& w) {
    retire_worker(w, /*kill=*/true);
    ++stats_.workers_killed;
    const UnitSpec unit = std::move(*w.unit);
    release_unit(w);
    run_inline(unit);
  };

  auto flush_tx = [&](Worker& w) {
    while (w.tx_off < w.tx.size()) {
      const ssize_t n = ::write(w.to_fd, w.tx.data() + w.tx_off,
                                w.tx.size() - w.tx_off);
      if (n > 0) {
        w.tx_off += static_cast<std::size_t>(n);
        stats_.bytes_tx += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      on_worker_death(w);
      return;
    }
    w.tx.clear();
    w.tx_off = 0;
  };

  auto dispatch = [&](Worker& w, UnitSpec&& unit) {
    const auto frame = pack_frame(FrameType::kUnit, encode_unit(unit));
    w.unit = std::move(unit);
    w.busy = true;
    w.dispatched_at = Clock::now();
    w.deadline =
        has_timeout ? w.dispatched_at + timeout : Clock::time_point::max();
    w.tx.insert(w.tx.end(), frame.begin(), frame.end());
    ++outstanding;
    ++stats_.units_dispatched;
    flush_tx(w);
  };

  auto handle_frame = [&](Worker& w, WireFrame&& frame) {
    switch (frame.type) {
      case FrameType::kSweepResult: {
        FTR_EXPECTS_MSG(w.busy && w.unit.has_value(),
                        "worker " << w.index << " sent an unsolicited result");
        auto [id, partial] = decode_sweep_result(frame.payload);
        FTR_EXPECTS_MSG(id == w.unit->unit_id,
                        "worker " << w.index << " answered unit " << id
                                  << " while unit " << w.unit->unit_id
                                  << " was in flight");
        auto& pw = stats_.per_worker[w.index];
        ++pw.units;
        pw.items += w.unit->end - w.unit->begin;
        pw.busy_seconds +=
            std::chrono::duration<double>(Clock::now() - w.dispatched_at)
                .count();
        store(id, partial);
        ++stats_.units_completed;
        release_unit(w);
        return;
      }
      case FrameType::kError: {
        auto [id, message] = decode_error(frame.payload);
        FTR_EXPECTS_MSG(false, "worker " << w.index << " failed on unit "
                                         << id << ": " << message);
        return;
      }
      default:
        FTR_EXPECTS_MSG(false, "worker " << w.index
                                         << " sent an unexpected frame type");
    }
  };

  auto handle_readable = [&](Worker& w) {
    std::size_t appended = 0;
    const IoStatus s = read_available(w.from_fd, w.rx, std::size_t{1} << 22,
                                      appended);
    stats_.bytes_rx += appended;
    stats_.per_worker[w.index].bytes_rx += appended;
    WireFrame frame;
    while (w.alive && pop_frame(w.rx, frame)) handle_frame(w, std::move(frame));
    if (s != IoStatus::kOk) on_worker_death(w);
  };

  for (;;) {
    // Dispatch to every idle live worker.
    for (auto& w : workers_) {
      if (!w.alive || w.busy) continue;
      auto unit = take_next();
      if (!unit.has_value()) break;
      dispatch(w, std::move(*unit));
    }

    // No workers left: the coordinator drains the remaining units itself.
    if (live_workers() == 0) {
      for (;;) {
        auto unit = take_next();
        if (!unit.has_value()) break;
        run_inline(*unit);
      }
    }

    if (outstanding == 0) {
      if (retry.empty() && feed_done) break;
      continue;  // back to dispatch (live workers exist, or inline drained)
    }

    // Poll the live workers: results to read, unit bytes still to write.
    std::vector<pollfd> fds;
    std::vector<Worker*> polled;
    auto poll_deadline = Clock::time_point::max();
    for (auto& w : workers_) {
      if (!w.alive) continue;
      short events = POLLIN;
      if (w.tx_off < w.tx.size()) events |= POLLOUT;
      fds.push_back(pollfd{w.from_fd, events, 0});
      polled.push_back(&w);
      if (w.busy) poll_deadline = std::min(poll_deadline, w.deadline);
    }
    // to_fd and from_fd are distinct descriptors; POLLOUT needs its own row.
    const std::size_t nin = fds.size();
    for (std::size_t i = 0; i < nin; ++i) {
      if (polled[i]->tx_off < polled[i]->tx.size()) {
        fds.push_back(pollfd{polled[i]->to_fd, POLLOUT, 0});
        polled.push_back(polled[i]);
      }
    }

    int wait_ms = 500;
    if (poll_deadline != Clock::time_point::max()) {
      const auto now = Clock::now();
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            poll_deadline - now)
                            .count();
      wait_ms = static_cast<int>(std::clamp<long long>(left, 0, 500));
    }
    if (!fds.empty()) {
      const int rc = ::poll(fds.data(), fds.size(), wait_ms);
      if (rc < 0 && errno != EINTR) {
        FTR_EXPECTS_MSG(false, "poll() failed in the sweep coordinator");
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        Worker& w = *polled[i];
        if (!w.alive || fds[i].revents == 0) continue;
        if (i < nin && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
          handle_readable(w);
        } else if (i >= nin && (fds[i].revents & (POLLOUT | POLLERR))) {
          flush_tx(w);
        }
      }
    }

    // Watchdog: anyone past their deadline gets the hammer.
    if (has_timeout) {
      const auto now = Clock::now();
      for (auto& w : workers_) {
        if (w.alive && w.busy && now >= w.deadline) on_worker_timeout(w);
      }
    }
  }

  for (std::uint64_t id = 0; id < merged.size(); ++id) {
    FTR_EXPECTS_MSG(merged[id], "distributed run never merged unit " << id);
  }
  return total;
}

UnitSpec DistSweepPool::pool_unit(UnitSpec unit) const {
  // threads/batch are the pool's per-worker knobs. Progress is
  // coordinator-side only: the wire does not carry it.
  unit.exec.threads = options_.exec.threads;
  unit.exec.batch_size = options_.exec.batch_size;
  return unit;
}

DistSweepPool::UnitFeed DistSweepPool::split(const UnitSpec& whole) const {
  const std::uint64_t step =
      auto_unit_items(whole.end - whole.begin);
  // Explicit-set units carry only their own slice of the literal sets.
  UnitSpec unit = pool_unit(whole);
  std::vector<std::vector<Node>> sets = std::move(unit.sets);
  unit.sets.clear();
  return [step, pos = whole.begin, unit = std::move(unit),
          sets = std::move(sets)]() mutable -> std::optional<UnitSpec> {
    if (pos >= unit.end) return std::nullopt;
    UnitSpec u = unit;
    u.begin = pos;
    u.end = std::min(unit.end, pos + step);
    if (!sets.empty()) {
      // Clamped, so a short list yields short slices the executor rejects.
      const auto at = [&](std::uint64_t i) {
        return sets.begin() + static_cast<std::ptrdiff_t>(
                                  std::min<std::uint64_t>(i - unit.begin,
                                                          sets.size()));
      };
      u.sets.assign(at(u.begin), at(u.end));
    }
    pos = u.end;
    return u;
  };
}

SweepPartial DistSweepPool::run(const UnitSpec& whole) {
  check_unit(whole, snapshot_->table.num_nodes());
  return fold(split(whole));
}

SweepPartial DistSweepPool::sweep_exhaustive(
    std::size_t f, const FaultSweepOptions& sweep_options) {
  return run(sweep_unit(
      UnitKind::kSweepGray, f,
      checked_binomial(snapshot_->table.num_nodes(), f), sweep_options));
}

SweepPartial DistSweepPool::sweep_source(
    FaultSetSource& source, const FaultSweepOptions& sweep_options) {
  const auto known = source.size();
  const std::uint64_t step =
      known.has_value() ? auto_unit_items(*known)
                        : (options_.unit_items > 0 ? options_.unit_items : 4096);
  return fold(explicit_unit_feed(
      source,
      pool_unit(sweep_unit(UnitKind::kSweepExplicit, 0, 0, sweep_options)),
      step));
}

}  // namespace ftr
