// bench_e2e: times the shipped ftroute CLI end to end on four fixed
// workloads, and breaks one traced in-process replay of each workload down
// by layer.
//
//   bench_e2e [--workload all|gray_sweep|dist_sweep|stream_sweep|serve_mixed]
//             [--seed S] [--reps R] [--seconds T] [--trace 0|1]
//             [--out FILE]
//
// End-to-end mode (--trace 0, the default):
//   1. every input is generated by the bench's own setup (the fault feed
//      and the request stream from --seed), which runs before every verb
//      run and once more up front (setup_s is the median);
//   2. each workload's CLI verb runs as a child process (posix_spawn): wall
//      time is spawn to exit, CPU time and peak RSS come from wait4 (which
//      folds in the reaped --workers children);
//   3. repetitions go round-robin across the selected workloads, so drift
//      on a shared host does not land on one workload. --reps R runs R
//      rounds; --seconds T runs rounds until T seconds of measuring are
//      used (at least three);
//   4. every run's stdout is checked (see the check() methods).
//
// Traced mode (--trace 1) sets up and replays all four workloads whatever
// --workload says, because the per-layer numbers are read side by side:
// the replay makes, in order, the same public library calls the verb makes,
// with a span around each call into a layer. A few probes then measure what
// the replay cannot see from outside (delivery cost by difference, thread
// speedup, serial per-request cost, cold table acquires). Finally the verbs
// run end to end again (tracing off), each followed by an untraced replay,
// so cli.unaccounted_s, the verb's median wall time minus the replay's
// median top-level span, shows how faithfully the replay mirrors the verb.
// Spans are written as Chrome trace-event JSON.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": K, "metrics": {...}}
// The full record (run context, every sample, quartiles, checks) goes to
// --out. Exit status is 0 only when every correctness check passed.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "cli/cli_support.hpp"
#include "common/combinatorics.hpp"
#include "common/cpu_features.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/planner.hpp"
#include "dist/coordinator.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/graph_io.hpp"
#include "routing/serialization.hpp"
#include "serve/request_router.hpp"
#include "serve/table_registry.hpp"

extern char** environ;

namespace {

using namespace ftr;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- statistics -------------------------------------------------------------

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles with the method of Python's
/// statistics.quantiles(values, n=4) ("exclusive"), so the numbers here and
/// in compare.py agree.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- JSON output --------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest round-trip form: every digit as measured, nothing invented.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_num(v[i]);
  }
  return out + "]";
}

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(v[i]);
  }
  return out + "]";
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_str(name) + ": {\"value\": " + json_num(metric.value) +
           ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return out + "}";
}

// ---- tracing ------------------------------------------------------------------

/// One span: a call into a layer, or (detail == true) one serve request or
/// window, which overlap each other and so stay out of self-time sums.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::string name;
  std::string layer;
  std::string workload;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t request = -1;
  bool detail = false;
};

/// In-memory span store, written out once at exit. A disabled tracer still
/// times scopes (the replays return durations either way) but keeps nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  double now() const { return seconds_between(epoch_, Clock::now()); }
  void set_workload(std::string w) { workload_ = std::move(w); }

  std::uint64_t open(const char* name, const char* layer) {
    if (!enabled_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.layer = layer;
    s.workload = workload_;
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void add_detail(const char* name, const char* layer, double start,
                  double end, std::int64_t request, std::uint64_t parent) {
    if (!enabled_) return;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.layer = layer;
    s.workload = workload_;
    s.start = start;
    s.end = end;
    s.request = request;
    s.detail = true;
    spans_.push_back(std::move(s));
  }

  /// Self time per layer over the call spans under `root` (root included):
  /// each span's duration minus the part of it its child spans cover.
  std::map<std::string, double> self_times(std::uint64_t root) const {
    std::map<std::string, double> out;
    if (root == 0) return out;
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans_) {
      if (!s.detail && s.parent != 0) children[s.parent].push_back(&s);
    }
    std::vector<const Span*> todo{&spans_[root - 1]};
    while (!todo.empty()) {
      const Span* s = todo.back();
      todo.pop_back();
      std::vector<std::pair<double, double>> cover;
      for (const Span* c : children[s->id]) {
        cover.emplace_back(std::max(c->start, s->start),
                           std::min(c->end, s->end));
        todo.push_back(c);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      double reach = s->start;
      for (const auto& [a, b] : cover) {
        const double from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
      out[s->layer] += (s->end - s->start) - covered;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds). Call
  /// spans share one lane; each serve request gets the lane of its slot in
  /// its window so overlapping requests do not stack.
  void write_chrome(const fs::path& path) const {
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const long tid = s.request >= 0 ? 100 + (s.request % 64)
                                      : (s.detail ? 2 : 1);
      os << "  {\"name\": " << json_str(s.name)
         << ", \"cat\": " << json_str(s.layer) << ", \"ph\": \"X\", \"ts\": "
         << json_num(s.start * 1e6)
         << ", \"dur\": " << json_num((s.end - s.start) * 1e6)
         << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"id\": " << s.id
         << ", \"parent\": " << s.parent
         << ", \"workload\": " << json_str(s.workload);
      if (s.request >= 0) os << ", \"request\": " << s.request;
      os << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    write_file(path, os.str());
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

/// RAII span; stop() returns the duration in seconds (also when the tracer
/// is disabled).
class Scope {
 public:
  Scope(Tracer& tr, const char* name, const char* layer)
      : tr_(&tr), id_(tr.open(name, layer)), t0_(Clock::now()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double stop() {
    if (!open_) return dur_;
    open_ = false;
    dur_ = seconds_between(t0_, Clock::now());
    tr_->close(id_);
    return dur_;
  }
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tr_;
  std::uint64_t id_;
  Clock::time_point t0_;
  bool open_ = true;
  double dur_ = 0.0;
};

// ---- child processes ----------------------------------------------------------

struct ChildRun {
  int exit_code = -1;  // 128 + signal when killed by one
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string out;
  std::string err;
};

/// What the spawning helper reports back for one child (fixed layout: both
/// ends are the same binary).
struct SpawnResult {
  std::int32_t spawn_errno = 0;
  std::int32_t exit_code = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t maxrss_kib = 0;
};

/// strings = {search_path "0"/"1", stdin, stdout, stderr, argv...}. Wall time
/// runs from spawn to exit; wait4's rusage covers the child plus every
/// descendant it reaped, and its maxrss is the largest of them.
SpawnResult spawn_and_wait(const std::vector<std::string>& strings) {
  std::vector<char*> argv;
  for (std::size_t i = 4; i < strings.size(); ++i) {
    argv.push_back(const_cast<char*>(strings[i].c_str()));
  }
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, strings[1].c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, strings[2].c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, strings[3].c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  SpawnResult r;
  pid_t pid = -1;
  const auto t0 = Clock::now();
  const int rc = strings[0] == "1"
                     ? ::posix_spawnp(&pid, argv[0], &fa, nullptr, argv.data(),
                                      environ)
                     : ::posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                                     environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    r.spawn_errno = rc;
    return r;
  }
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      r.spawn_errno = errno;
      return r;
    }
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  r.maxrss_kib = ru.ru_maxrss;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                  : 128 + WTERMSIG(status);
  return r;
}

bool write_exact(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Spawns the verb runs from a helper process forked at startup, while the
/// driver is still small. A child's ru_maxrss includes the resident size of
/// the address space it exec'd from (posix_spawn's vfork shares the
/// parent's), so spawning from the driver after its in-process replays
/// would report the driver's footprint instead of the CLI's.
class Spawner {
 public:
  Spawner() {
    int req[2];
    int resp[2];
    if (::pipe2(req, O_CLOEXEC) != 0 || ::pipe2(resp, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(req[1]);
      ::close(resp[0]);
      serve(req[0], resp[1]);
      ::_exit(0);
    }
    ::close(req[0]);
    ::close(resp[1]);
    to_ = req[1];
    from_ = resp[0];
  }
  ~Spawner() {
    ::close(to_);  // EOF: the helper exits
    ::close(from_);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  Spawner(const Spawner&) = delete;
  Spawner& operator=(const Spawner&) = delete;

  /// Runs args[0] (a path, or looked up in PATH when search_path) with
  /// stdin/stdout/stderr redirected to files, waits, and reads the outputs.
  ChildRun run(const std::vector<std::string>& args, const fs::path& in,
               const fs::path& out, const fs::path& err,
               bool search_path = false) {
    std::vector<std::string> strings{search_path ? "1" : "0", in.string(),
                                     out.string(), err.string()};
    strings.insert(strings.end(), args.begin(), args.end());
    auto count = static_cast<std::uint32_t>(strings.size());
    bool ok = write_exact(to_, &count, sizeof count);
    for (const auto& s : strings) {
      const auto len = static_cast<std::uint32_t>(s.size());
      ok = ok && write_exact(to_, &len, sizeof len) &&
           write_exact(to_, s.data(), s.size());
    }
    SpawnResult sr;
    if (!ok || !read_exact(from_, &sr, sizeof sr)) {
      throw std::runtime_error("the spawning helper died");
    }
    if (sr.spawn_errno != 0) {
      throw std::runtime_error("cannot run " + args[0] + ": " +
                               std::strerror(sr.spawn_errno));
    }
    ChildRun r;
    r.exit_code = sr.exit_code;
    r.wall_s = sr.wall_s;
    r.cpu_s = sr.cpu_s;
    r.peak_rss_mb = static_cast<double>(sr.maxrss_kib) / 1024.0;  // KiB -> MiB
    r.out = read_file(out);
    r.err = read_file(err);
    return r;
  }

 private:
  [[noreturn]] static void serve(int in, int out) {
    for (;;) {
      std::uint32_t count = 0;
      if (!read_exact(in, &count, sizeof count)) ::_exit(0);
      std::vector<std::string> strings(count);
      for (auto& s : strings) {
        std::uint32_t len = 0;
        if (!read_exact(in, &len, sizeof len)) ::_exit(1);
        s.resize(len);
        if (!read_exact(in, s.data(), len)) ::_exit(1);
      }
      const SpawnResult r = spawn_and_wait(strings);
      if (!write_exact(out, &r, sizeof r)) ::_exit(1);
    }
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

// ---- reading the CLI's stdout ---------------------------------------------------

/// Second cell of the "| key | value |" row of the sweep verb's table.
std::optional<std::string> table_cell(const std::string& out,
                                      const std::string& key) {
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| " + key + " ", 0) != 0) continue;
    const auto bar = line.find('|', 2);
    if (bar == std::string::npos) return std::nullopt;
    std::string v = line.substr(bar + 1);
    v.erase(v.find_last_not_of(" |") + 1);
    v.erase(0, v.find_first_not_of(' '));
    return v;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> table_u64(const std::string& out,
                                       const std::string& key) {
  const auto cell = table_cell(out, key);
  return cell ? parse_u64(*cell) : std::nullopt;
}

/// Sum of the "diameter histogram:" lines, disconnected sets included.
std::uint64_t histogram_total(const std::string& out) {
  std::istringstream in(out);
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    const auto colon = line.rfind(": ");
    if (colon == std::string::npos) continue;
    if (line.rfind("  d=", 0) != 0 && line.rfind("  disconnected:", 0) != 0) {
      continue;
    }
    total += parse_u64(line.substr(colon + 2)).value_or(0);
  }
  return total;
}

/// The number printed just before " <word>" in a telemetry line.
std::optional<std::uint64_t> number_before(const std::string& text,
                                           const std::string& word) {
  const auto at = text.find(" " + word);
  if (at == std::string::npos) return std::nullopt;
  auto begin = at;
  while (begin > 0 && std::isdigit(static_cast<unsigned char>(text[begin - 1]))) {
    --begin;
  }
  return parse_u64(text.substr(begin, at - begin));
}

/// The sweep verb's stdout, byte for byte (src/cli/cmd_sweep.cpp): the
/// replay formats its summary the same way so the two can be compared.
std::string format_sweep_stdout(const FaultSweepSummary& summary,
                                std::size_t f, bool from_stdin,
                                std::size_t delivery_pairs) {
  std::ostringstream os;
  Table t({"metric", "value"});
  t.add_row({"fault sets", Table::cell(summary.total_sets)});
  if (!from_stdin) t.add_row({"faults per set", Table::cell(f)});
  t.add_row({"disconnected sets", Table::cell(summary.disconnected)});
  t.add_row({"worst diameter", summary.worst_diameter == kUnreachable
                                   ? "disconnected"
                                   : Table::cell(summary.worst_diameter)});
  if (delivery_pairs > 0) {
    t.add_row({"pairs sampled", Table::cell(summary.pairs_sampled)});
    t.add_row({"delivered", Table::cell(summary.delivered)});
    t.add_row({"avg route hops", Table::cell(summary.avg_route_hops, 3)});
    t.add_row({"max route hops", Table::cell(summary.max_route_hops)});
    t.add_row({"max edge hops", Table::cell(summary.max_edge_hops)});
  }
  t.print(os);
  os << "\ndiameter histogram:\n";
  for (std::uint32_t d = 0; d < summary.diameter_histogram.size(); ++d) {
    if (summary.diameter_histogram[d] == 0) continue;
    os << "  d=" << d << ": " << summary.diameter_histogram[d] << '\n';
  }
  if (summary.disconnected > 0) {
    os << "  disconnected: " << summary.disconnected << '\n';
  }
  if (summary.total_sets > 0) {
    os << "worst fault set (#" << summary.worst_index << "):";
    for (Node v : summary.worst_faults) os << ' ' << v;
    os << '\n';
  }
  return os.str();
}

/// Layer-call telemetry of one parallel engine call.
void add_parallel_metrics(Metrics& m, const std::string& workload,
                          double wall_s, double cpu_s, unsigned threads,
                          const ExecutorStats& e) {
  const double attempts = static_cast<double>(e.steal_attempts);
  m["parallel.busy_frac." + workload] = {
      wall_s > 0 ? cpu_s / (wall_s * threads) : 0.0, "ratio"};
  m["parallel.chunks." + workload] = {
      static_cast<double>(e.chunks_local + e.chunks_stolen), "count"};
  m["parallel.steals." + workload] = {static_cast<double>(e.steals), "count"};
  m["parallel.steal_attempts." + workload] = {attempts, "count"};
  m["parallel.steal_hit_ratio." + workload] = {
      attempts > 0 ? static_cast<double>(e.steals) / attempts : 0.0, "ratio"};
}

// ---- workloads ------------------------------------------------------------------

/// What one traced replay hands back: its top-level span and the stdout the
/// verb would have printed.
struct Replay {
  std::uint64_t root = 0;
  double root_s = 0.0;
  std::string stdout_text;
};

constexpr const char* kCli = FTROUTE_E2E_CLI;

/// The routings are fixed (the planner's default seed): a planner seed
/// changes the work per fault set by several percent, which would read as
/// noise across --seed values. --seed drives the fault feed and the request
/// stream only.
constexpr std::uint64_t kPlannerSeed = 42;

/// The sweep verb's --seed default (delivery sampling streams).
constexpr std::uint64_t kSweepSeed = 7;

class Workload {
 public:
  Workload(std::string name, fs::path dir, std::uint64_t seed)
      : name_(std::move(name)), dir_(std::move(dir)), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  const fs::path& dir() const { return dir_; }

  /// Generates every input from the seed into dir(). Deterministic: the
  /// same seed writes the same bytes.
  virtual void setup(Tracer& tr) = 0;
  /// The verb's argv, CLI path first.
  virtual std::vector<std::string> command() const = 0;
  virtual fs::path stdin_path() const { return "/dev/null"; }
  /// Fault sets or requests one verb run processes (items_per_s numerator).
  virtual std::uint64_t items() const = 0;
  /// Operations one verb run counts for failed_frac: 1 for a sweep, one per
  /// request for serve.
  virtual std::uint64_t ops_per_run() const { return 1; }
  /// The stdout every run must print, from in-process library calls; empty
  /// when runs are only compared with each other.
  virtual std::string reference() { return {}; }
  /// Checks printed output against `expected` (may be empty) and the
  /// workload's invariants. Returns failed operations; appends problems.
  virtual std::uint64_t check_stdout(const std::string& out,
                                     const std::string& expected,
                                     std::vector<std::string>& problems) const = 0;
  /// check_stdout plus what only a verb run has: its exit status (and, for
  /// dist_sweep, its stderr telemetry). A failed exit fails every operation.
  virtual std::uint64_t check(const ChildRun& run, const std::string& expected,
                              std::vector<std::string>& problems) const {
    if (run.exit_code != 0) {
      problems.push_back(name_ + ": exit code " + std::to_string(run.exit_code) +
                         ": " + run.err.substr(0, 300));
      return ops_per_run();
    }
    return check_stdout(run.out, expected, problems);
  }
  /// The traced replay: the verb's library calls, in the verb's order.
  virtual Replay replay(Tracer& tr, Metrics& m) = 0;
  /// Measurements outside the replay (run after it).
  virtual void probe(Tracer&, Metrics&) {}
  /// Layers whose self time is reported for this workload.
  virtual std::vector<std::string> layers() const = 0;

 protected:
  std::string name_;
  fs::path dir_;
  std::uint64_t seed_;
};

/// gray_sweep and dist_sweep: the exhaustive f=3 sweep of a planner-built
/// torus(10,10) snapshot, in-process on 4 threads or over 4 forked workers
/// of 1 thread each. Both must print the same bytes.
class SweepWorkload final : public Workload {
 public:
  static constexpr std::size_t kSide = 10;
  static constexpr std::size_t kFaults = 3;
  static constexpr unsigned kThreads = 4;
  static constexpr unsigned kWorkers = 4;

  SweepWorkload(std::string name, fs::path dir, std::uint64_t seed, bool dist)
      : Workload(std::move(name), std::move(dir), seed), dist_(dist) {}

  void setup(Tracer& tr) override {
    fs::create_directories(dir_);
    GeneratedGraph gg = [&] {
      Scope s(tr, "gen.torus_graph", "gen");
      return torus_graph(kSide, kSide);
    }();
    PlannedRouting planned = [&] {
      Scope s(tr, "core.build_planned_routing", "core");
      Rng rng(kPlannerSeed);
      return build_planned_routing(gg.graph, std::nullopt, rng);
    }();
    plan_ = planned.plan;
    n_ = gg.graph.num_nodes();
    Scope s(tr, "routing.save_table_snapshot", "routing");
    const TableSnapshot snap = make_table_snapshot(
        std::move(gg.graph), std::move(planned.table), planned.plan);
    save_table_snapshot_file(snap, snap_path());
  }

  std::vector<std::string> command() const override {
    std::vector<std::string> c{kCli,          "sweep",      snap_path(),
                               snap_path(),   "--faults",   std::to_string(kFaults),
                               "--exhaustive"};
    if (dist_) {
      c.insert(c.end(), {"--workers", std::to_string(kWorkers), "--threads", "1"});
    } else {
      c.insert(c.end(), {"--threads", std::to_string(kThreads)});
    }
    return c;
  }

  std::uint64_t items() const override { return binomial(n_, kFaults); }

  // Both workloads compare against the in-process thread-pool sweep, so
  // every run of either also checks dist == gray byte for byte.
  std::string reference() override {
    Tracer off(false);
    Metrics ignored;
    return replay_gray(off, ignored).stdout_text;
  }

  std::uint64_t check(const ChildRun& run, const std::string& expected,
                      std::vector<std::string>& problems) const override {
    std::uint64_t failed = Workload::check(run, expected, problems);
    if (dist_ && run.exit_code == 0) {
      // A retried or inlined unit, or a lost worker, is a failed operation
      // even when the merged result is right.
      std::uint64_t lost = 0;
      for (const char* word : {"retried", "inline", "exited", "killed"}) {
        const auto v = number_before(run.err, word);
        if (!v) {
          problems.push_back(name_ + ": no '" + word + "' count on stderr");
          return 1;
        }
        lost += *v;
      }
      if (lost > 0) {
        problems.push_back(name_ + ": dist units retried/inlined or workers lost");
        failed = 1;
      }
    }
    return failed;
  }

  /// The paper's claim, machine-checked: the worst surviving diameter over
  /// all C(n, f) sets stays within the planner's d whenever f <= its f.
  std::uint64_t check_stdout(const std::string& out,
                             const std::string& expected,
                             std::vector<std::string>& problems) const override {
    std::uint64_t failed = 0;
    if (!expected.empty() && out != expected) {
      problems.push_back(name_ + ": stdout differs from the reference");
      failed = 1;
    }
    const std::uint64_t want = binomial(n_, kFaults);
    const auto total = table_u64(out, "fault sets");
    if (!total || *total != want || histogram_total(out) != want) {
      problems.push_back(name_ + ": histogram does not sum to C(" +
                         std::to_string(n_) + "," + std::to_string(kFaults) +
                         ") = " + std::to_string(want));
      failed = 1;
    }
    if (kFaults <= plan_.tolerated_faults) {
      const auto worst = table_u64(out, "worst diameter");
      if (!worst || *worst > plan_.guaranteed_diameter) {
        problems.push_back(name_ + ": worst diameter exceeds the planner's d=" +
                           std::to_string(plan_.guaranteed_diameter));
        failed = 1;
      }
    }
    return failed;
  }

  Replay replay(Tracer& tr, Metrics& m) override {
    return dist_ ? replay_dist(tr, m) : replay_gray(tr, m);
  }

  /// parallel.speedup_4t: one fixed 1/16 rank slice of this problem, at 1
  /// and at 4 threads (median of three each).
  void probe(Tracer& tr, Metrics& m) override {
    if (dist_) return;
    const TableSnapshot snap = load_table_snapshot_file(snap_path());
    const std::uint64_t end = binomial(n_, kFaults) / 16;
    auto median_at = [&](unsigned threads, const char* span) {
      FaultSweepOptions opts;
      opts.exec.threads = threads;
      opts.seed = kSweepSeed;
      std::vector<double> t;
      for (int i = 0; i < 3; ++i) {
        Scope s(tr, span, "analysis");
        sweep_exhaustive_gray_range(snap.table, *snap.index, kFaults, 0, end,
                                    opts);
        t.push_back(s.stop());
      }
      return summarize(t).median;
    };
    const double t1 = median_at(1, "analysis.sweep_exhaustive_gray_range.1t");
    const double t4 =
        median_at(kThreads, "analysis.sweep_exhaustive_gray_range.4t");
    m["parallel.speedup_4t"] = {t4 > 0 ? t1 / t4 : 0.0, "x"};
  }

  std::vector<std::string> layers() const override {
    if (dist_) return {"cli", "routing", "dist"};
    return {"cli", "routing", "fault", "analysis"};
  }

 private:
  std::string snap_path() const { return (dir_ / "t10.snap").string(); }

  /// cmd_sweep with --exhaustive --threads 4.
  Replay replay_gray(Tracer& tr, Metrics& m) const {
    Replay r;
    Scope root(tr, "cli.sweep", "cli");
    r.root = root.id();
    Scope load(tr, "routing.load_graph_table_args", "routing");
    auto [g, table] = cli::load_graph_table_args(snap_path(), snap_path());
    const double load_s = load.stop();
    {
      Scope s(tr, "routing.validate", "routing");
      table.validate(g);
    }
    FaultSweepOptions opts;
    opts.exec.threads = kThreads;
    opts.seed = kSweepSeed;
    Scope build(tr, "fault.SrgIndex", "fault");
    const SrgIndex index(table);
    const double index_s = build.stop();
    Scope sweep(tr, "analysis.sweep_exhaustive_gray", "analysis");
    const double cpu0 = process_cpu_s();
    const FaultSweepSummary summary =
        sweep_exhaustive_gray(table, index, kFaults, opts);
    const double cpu_s = process_cpu_s() - cpu0;
    const double sweep_s = sweep.stop();
    {
      Scope s(tr, "cli.format_output", "cli");
      r.stdout_text = format_sweep_stdout(summary, kFaults, false, 0);
    }
    r.root_s = root.stop();

    const std::string w = name_;
    m["routing.snapshot_load_ms"] = {load_s * 1e3, "ms"};
    m["fault.srg_index_build_ms." + w] = {index_s * 1e3, "ms"};
    m["analysis.sweep_s." + w] = {sweep_s, "s"};
    m["analysis.cpu_us_per_set." + w] = {
        cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, summary.total_sets)),
        "us/set"};
    add_parallel_metrics(m, w, sweep_s, cpu_s, opts.exec.resolved_threads(),
                         summary.executor);
    return r;
  }

  /// cmd_sweep with --exhaustive --workers 4 --threads 1.
  Replay replay_dist(Tracer& tr, Metrics& m) const {
    Replay r;
    Scope root(tr, "cli.sweep", "cli");
    r.root = root.id();
    auto [g, table] = [&] {
      Scope s(tr, "routing.load_graph_table_args", "routing");
      return cli::load_graph_table_args(snap_path(), snap_path());
    }();
    {
      Scope s(tr, "routing.validate", "routing");
      table.validate(g);
    }
    FaultSweepOptions opts;
    opts.exec.threads = 1;
    opts.seed = kSweepSeed;
    const std::string staged = cli::dist_snapshot_path(snap_path(), snap_path());
    Scope make(tr, "routing.make_table_snapshot", "routing");
    const TableSnapshot snap = make_table_snapshot(std::move(g), std::move(table));
    const double make_s = make.stop();

    DistPoolOptions popts;
    popts.workers = kWorkers;
    popts.exec = opts.exec;
    std::optional<DistSweepPool> pool;
    Scope start(tr, "dist.DistSweepPool", "dist");
    pool.emplace(snap, staged, popts);
    const double start_s = start.stop();
    Scope sweep(tr, "dist.sweep_exhaustive", "dist");
    const SweepPartial partial = pool->sweep_exhaustive(kFaults, opts);
    const double sweep_s = sweep.stop();
    const FaultSweepSummary summary = summarize_sweep_partial(partial);
    const DistStats stats = pool->stats();
    Scope stop(tr, "dist.~DistSweepPool", "dist");
    pool.reset();
    const double stop_s = stop.stop();
    {
      Scope s(tr, "cli.format_output", "cli");
      r.stdout_text = format_sweep_stdout(summary, kFaults, false, 0);
    }
    r.root_s = root.stop();

    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (const auto& w : stats.per_worker) {
      busy_sum += w.busy_seconds;
      busy_max = std::max(busy_max, w.busy_seconds);
    }
    const double workers = static_cast<double>(std::max<std::size_t>(1, stats.per_worker.size()));
    const double busy_mean = busy_sum / workers;
    m["routing.make_snapshot_ms"] = {make_s * 1e3, "ms"};
    m["dist.pool_start_ms"] = {start_s * 1e3, "ms"};
    m["dist.sweep_s"] = {sweep_s, "s"};
    m["dist.pool_stop_ms"] = {stop_s * 1e3, "ms"};
    m["dist.worker_busy_frac"] = {sweep_s > 0 ? busy_sum / (workers * sweep_s) : 0.0, "ratio"};
    m["dist.busy_imbalance"] = {busy_mean > 0 ? busy_max / busy_mean : 0.0, "ratio"};
    m["dist.units"] = {static_cast<double>(stats.units_dispatched), "count"};
    m["dist.bytes_tx"] = {static_cast<double>(stats.bytes_tx), "count"};
    m["dist.bytes_rx"] = {static_cast<double>(stats.bytes_rx), "count"};
    m["dist.units_retried"] = {static_cast<double>(stats.units_retried), "count"};
    m["dist.units_inline"] = {static_cast<double>(stats.units_inline), "count"};
    m["dist.workers_lost"] = {
        static_cast<double>(stats.workers_exited + stats.workers_killed), "count"};
    return r;
  }

  bool dist_;
  Plan plan_;
  std::size_t n_ = kSide * kSide;
};

/// Times FaultSetSource::next, which the sweep engine pulls serially while
/// its workers wait for the next batch.
class TimedFaultSource final : public FaultSetSource {
 public:
  explicit TimedFaultSource(FaultSetSource& inner) : inner_(&inner) {}
  std::optional<std::uint64_t> size() const override { return inner_->size(); }
  bool next(std::vector<Node>& out) override {
    const auto t0 = Clock::now();
    const bool more = inner_->next(out);
    wait_s += seconds_between(t0, Clock::now());
    return more;
  }
  double wait_s = 0.0;

 private:
  FaultSetSource* inner_;
};

/// stream_sweep: a seeded text feed of random sets (f in {4,5,6}) swept
/// against text-format torus(12,12) files with 2 delivery pairs per set.
class StreamWorkload final : public Workload {
 public:
  static constexpr std::size_t kSide = 12;
  static constexpr std::uint64_t kSets = 12000;
  static constexpr unsigned kThreads = 4;
  static constexpr std::size_t kPairs = 2;

  using Workload::Workload;

  void setup(Tracer& tr) override {
    fs::create_directories(dir_);
    GeneratedGraph gg = [&] {
      Scope s(tr, "gen.torus_graph", "gen");
      return torus_graph(kSide, kSide);
    }();
    PlannedRouting planned = [&] {
      Scope s(tr, "core.build_planned_routing", "core");
      Rng rng(kPlannerSeed);
      return build_planned_routing(gg.graph, std::nullopt, rng);
    }();
    {
      Scope s(tr, "graph.save_graph", "graph");
      std::ostringstream os;
      os << "# " << gg.name << '\n';
      save_graph(gg.graph, os);
      write_file(graph_path(), os.str());
    }
    {
      Scope s(tr, "routing.save_routing_table_file", "routing");
      save_routing_table_file(planned.table, table_path());
    }
    Scope s(tr, "bench.write_feed", "bench");
    Rng rng(seed_ ^ 0x5eedfeedULL);
    std::string feed;
    for (std::uint64_t i = 0; i < kSets; ++i) {
      const auto f = static_cast<std::size_t>(4 + rng.below(3));
      const auto set = rng.sample(gg.graph.num_nodes(), f);
      for (std::size_t j = 0; j < set.size(); ++j) {
        if (j > 0) feed += ' ';
        feed += std::to_string(set[j]);
      }
      feed += '\n';
    }
    write_file(feed_path(), feed);
  }

  std::vector<std::string> command() const override {
    return {kCli,        "sweep",     graph_path(), table_path(),
            "--stdin",   "--threads", std::to_string(kThreads),
            "--delivery-pairs", std::to_string(kPairs)};
  }
  fs::path stdin_path() const override { return feed_path(); }
  std::uint64_t items() const override { return kSets; }

  std::string reference() override {
    Tracer off(false);
    Metrics ignored;
    return replay(off, ignored).stdout_text;
  }

  std::uint64_t check_stdout(const std::string& out,
                             const std::string& expected,
                             std::vector<std::string>& problems) const override {
    std::uint64_t failed = 0;
    if (!expected.empty() && out != expected) {
      problems.push_back(name_ + ": stdout differs from the reference");
      failed = 1;
    }
    if (table_u64(out, "fault sets") != kSets || histogram_total(out) != kSets) {
      problems.push_back(name_ + ": set count differs from the feed length " +
                         std::to_string(kSets));
      failed = 1;
    }
    const auto pairs = table_u64(out, "pairs sampled");
    const auto delivered = table_u64(out, "delivered");
    if (!pairs || !delivered || *delivered > *pairs || *pairs == 0) {
      problems.push_back(name_ + ": delivered exceeds pairs sampled");
      failed = 1;
    }
    return failed;
  }

  /// cmd_sweep with --stdin --threads 4 --delivery-pairs 2.
  Replay replay(Tracer& tr, Metrics& m) override {
    Replay r;
    Scope root(tr, "cli.sweep", "cli");
    r.root = root.id();
    Scope load(tr, "routing.load_graph_table_args", "routing");
    auto [g, table] = cli::load_graph_table_args(graph_path(), table_path());
    const double load_s = load.stop();
    {
      Scope s(tr, "routing.validate", "routing");
      table.validate(g);
    }
    FaultSweepOptions opts;
    opts.exec.threads = kThreads;
    opts.delivery_pairs = kPairs;
    opts.seed = kSweepSeed;
    Scope build(tr, "fault.SrgIndex", "fault");
    const SrgIndex index(table);
    const double index_s = build.stop();
    std::ifstream feed(feed_path());
    IstreamFaultSetSource source(feed, g.num_nodes());
    TimedFaultSource timed(source);
    Scope sweep(tr, "analysis.sweep_fault_source", "analysis");
    const double cpu0 = process_cpu_s();
    const FaultSweepSummary summary =
        sweep_fault_source(table, index, timed, opts);
    const double cpu_s = process_cpu_s() - cpu0;
    const double sweep_s = sweep.stop();
    {
      Scope s(tr, "cli.format_output", "cli");
      r.stdout_text = format_sweep_stdout(summary, 1, true, kPairs);
    }
    r.root_s = root.stop();

    const std::string w = name_;
    sweep_s_ = sweep_s;
    m["routing.text_load_ms"] = {load_s * 1e3, "ms"};
    m["fault.srg_index_build_ms." + w] = {index_s * 1e3, "ms"};
    m["analysis.sweep_s." + w] = {sweep_s, "s"};
    m["analysis.cpu_us_per_set." + w] = {
        cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, summary.total_sets)),
        "us/set"};
    m["analysis.source_wait_s"] = {timed.wait_s, "s"};
    m["sim.delivered_ratio"] = {
        summary.pairs_sampled > 0 ? static_cast<double>(summary.delivered) /
                                        static_cast<double>(summary.pairs_sampled)
                                  : 0.0,
        "ratio"};
    add_parallel_metrics(m, w, sweep_s, cpu_s, opts.exec.resolved_threads(),
                         summary.executor);
    return r;
  }

  /// sim.delivery_s, by difference: the replay's sweep minus the same sweep
  /// without delivery pairs.
  void probe(Tracer& tr, Metrics& m) override {
    auto [g, table] = cli::load_graph_table_args(graph_path(), table_path());
    const SrgIndex index(table);
    FaultSweepOptions opts;
    opts.exec.threads = kThreads;
    opts.seed = kSweepSeed;
    std::ifstream feed(feed_path());
    IstreamFaultSetSource source(feed, g.num_nodes());
    Scope s(tr, "analysis.sweep_fault_source.no_delivery", "analysis");
    sweep_fault_source(table, index, source, opts);
    m["sim.delivery_s"] = {sweep_s_ - s.stop(), "s"};
  }

  std::vector<std::string> layers() const override {
    return {"cli", "routing", "fault", "analysis"};
  }

 private:
  std::string graph_path() const { return (dir_ / "t12.ftg").string(); }
  std::string table_path() const { return (dir_ / "t12.ftt").string(); }
  fs::path feed_path() const { return dir_ / "feed.txt"; }

  double sweep_s_ = 0.0;
};

/// Stamps the time of each pull, so a request's latency can run from the
/// moment the router takes it.
class TimedRequestSource final : public RequestSource {
 public:
  TimedRequestSource(RequestSource& inner, const Tracer& tr)
      : inner_(&inner), tr_(&tr) {}
  bool next(ServeRequest& out) override {
    if (!inner_->next(out)) return false;
    pulled.push_back(tr_->now());
    return true;
  }
  std::vector<double> pulled;

 private:
  RequestSource* inner_;
  const Tracer* tr_;
};

/// Keeps what the router writes and stamps each newline: response k is
/// complete at newline k (responses come out in request order).
class StampingBuf final : public std::streambuf {
 public:
  explicit StampingBuf(const Tracer& tr) : tr_(&tr) {}
  std::string text;
  std::vector<double> newline_at;

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return c;
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    const auto newlines = std::count(s, s + n, '\n');
    if (newlines > 0) newline_at.insert(newline_at.end(), newlines, tr_->now());
    return n;
  }

 private:
  const Tracer* tr_;
};

/// serve_mixed: a seeded stream of requests over five tables, four served
/// from snapshots and torus(8,8) rebuilt by the planner on every miss,
/// under a byte budget that forces churn.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kRequests = 2560;
  static constexpr unsigned kThreads = 4;
  static constexpr std::size_t kBatch = 16;
  static constexpr std::uint64_t kWindow = kBatch * kThreads;
  static constexpr std::uint64_t kMaxResident = 4000000;
  // Exact shares (55/30/12/3 %), so per-kind sample sizes do not depend on
  // the seed.
  static constexpr std::array<std::pair<RequestKind, std::uint64_t>, 4> kMix{{
      {RequestKind::kDelivery, 1408},
      {RequestKind::kSweep, 768},
      {RequestKind::kCheck, 307},
      {RequestKind::kCertify, 77},
  }};

  using Workload::Workload;

  void setup(Tracer& tr) override {
    fs::create_directories(dir_);
    std::string manifest;
    for (const auto& [name, make] : snapshot_tables()) {
      GeneratedGraph gg = [&, &make = make] {
        Scope s(tr, "gen.graph", "gen");
        return make();
      }();
      PlannedRouting planned = [&] {
        Scope s(tr, "core.build_planned_routing", "core");
        Rng rng(kPlannerSeed);
        return build_planned_routing(gg.graph, std::nullopt, rng);
      }();
      Scope s(tr, "routing.save_table_snapshot", "routing");
      const std::string path = (dir_ / (name + ".snap")).string();
      save_table_snapshot_file(
          make_table_snapshot(std::move(gg.graph), std::move(planned.table),
                              planned.plan),
          path);
      manifest += "table " + name + " snapshot=" + path + '\n';
    }
    GeneratedGraph t8 = [&] {
      Scope s(tr, "gen.graph", "gen");
      return torus_graph(8, 8);
    }();
    {
      Scope s(tr, "graph.save_graph", "graph");
      std::ostringstream os;
      os << "# " << t8.name << '\n';
      save_graph(t8.graph, os);
      const std::string path = (dir_ / "t8.ftg").string();
      write_file(path, os.str());
      manifest += "table t8 graph=" + path + " seed=" + std::to_string(kPlannerSeed) + '\n';
    }
    Scope s(tr, "bench.write_requests", "bench");
    write_file(manifest_path(), manifest);
    write_file(requests_path(), make_requests());
  }

  std::vector<std::string> command() const override {
    return {kCli,
            "serve",
            "--tables",
            manifest_path(),
            "--requests",
            requests_path(),
            "--threads",
            std::to_string(kThreads),
            "--batch",
            std::to_string(kBatch),
            "--max-resident-bytes",
            std::to_string(kMaxResident)};
  }
  std::uint64_t items() const override { return kRequests; }
  std::uint64_t ops_per_run() const override { return kRequests; }

  /// Every request answered once, in order (#0 .. #N-1), none with error:,
  /// and every check and certify HOLDS. Each bad response is one failed
  /// operation.
  std::uint64_t check_stdout(const std::string& out,
                             const std::string& expected,
                             std::vector<std::string>& problems) const override {
    const auto lines = split_lines(out);
    const auto want = split_lines(expected);
    std::uint64_t failed = 0;
    auto fail = [&](std::uint64_t k, const std::string& why) {
      if (++failed <= 5) {
        problems.push_back(name_ + ": response #" + std::to_string(k) + " " + why);
      }
    };
    for (std::uint64_t k = 0; k < kRequests; ++k) {
      if (k >= lines.size()) {
        fail(k, "missing");
        continue;
      }
      const std::string& line = lines[k];
      std::string prefix = "#";
      prefix += std::to_string(k);
      prefix += ' ';
      if (line.rfind(prefix, 0) != 0) {
        fail(k, "out of order");
      } else if (line.find("error:") != std::string::npos) {
        fail(k, "is an error");
      } else if ((line.compare(prefix.size(), 6, "check ") == 0 ||
                  line.compare(prefix.size(), 8, "certify ") == 0) &&
                 line.find(" HOLDS") == std::string::npos) {
        fail(k, "does not hold");
      } else if (!want.empty() && (k >= want.size() || line != want[k])) {
        fail(k, "differs from the reference");
      }
    }
    if (lines.size() > kRequests) {
      failed += lines.size() - kRequests;
      problems.push_back(name_ + ": extra response lines");
    }
    return failed;
  }

  /// cmd_serve with --requests FILE --threads 4 --batch 16
  /// --max-resident-bytes 4000000.
  Replay replay(Tracer& tr, Metrics& m) override {
    Replay r;
    Scope root(tr, "cli.serve", "cli");
    r.root = root.id();
    TableRegistryOptions ropts;
    ropts.max_resident_bytes = kMaxResident;
    TableRegistry registry(ropts);
    {
      Scope s(tr, "serve.load_table_manifest", "serve");
      std::ifstream mf(manifest_path());
      load_table_manifest(mf, registry);
    }
    ServeOptions sopts;
    sopts.exec.threads = kThreads;
    sopts.exec.batch_size = kBatch;
    std::ifstream rf(requests_path());
    IstreamRequestSource source(rf);
    TimedRequestSource timed(source, tr);
    StampingBuf sink(tr);
    std::ostream out(&sink);
    Scope serve(tr, "serve.serve_requests", "serve");
    const double cpu0 = process_cpu_s();
    const ServeSummary summary = serve_requests(registry, timed, out, sopts);
    const double cpu_s = process_cpu_s() - cpu0;
    const double serve_s = serve.stop();
    r.root_s = root.stop();
    r.stdout_text = sink.text;

    const std::size_t n = std::min(timed.pulled.size(), sink.newline_at.size());
    std::vector<double> request_ms;
    for (std::size_t k = 0; k < n; ++k) {
      tr.add_detail("serve.request", "serve", timed.pulled[k],
                    sink.newline_at[k], static_cast<std::int64_t>(k), serve.id());
      request_ms.push_back((sink.newline_at[k] - timed.pulled[k]) * 1e3);
    }
    std::vector<double> window_ms;
    for (std::size_t begin = 0; begin < n; begin += kWindow) {
      const std::size_t last = std::min<std::size_t>(begin + kWindow, n) - 1;
      tr.add_detail("serve.window", "serve", timed.pulled[begin],
                    sink.newline_at[last], -1, serve.id());
      window_ms.push_back((sink.newline_at[last] - timed.pulled[begin]) * 1e3);
    }
    const auto& reg = summary.registry;
    m["serve.request_ms_p50"] = {percentile(request_ms, 0.50), "ms"};
    m["serve.request_ms_p99"] = {percentile(request_ms, 0.99), "ms"};
    m["serve.window_ms_p50"] = {percentile(window_ms, 0.50), "ms"};
    m["serve.window_ms_p75"] = {percentile(window_ms, 0.75), "ms"};
    m["serve.registry_hit_ratio"] = {
        reg.hits + reg.misses > 0 ? static_cast<double>(reg.hits) /
                                        static_cast<double>(reg.hits + reg.misses)
                                  : 0.0,
        "ratio"};
    m["serve.registry_misses"] = {static_cast<double>(reg.misses), "count"};
    m["serve.registry_builds"] = {static_cast<double>(reg.builds), "count"};
    m["serve.registry_snapshot_loads"] = {static_cast<double>(reg.snapshot_loads), "count"};
    m["serve.registry_evictions"] = {static_cast<double>(reg.evictions), "count"};
    add_parallel_metrics(m, name_, serve_s, cpu_s,
                         sopts.exec.resolved_threads(), summary.executor);
    return r;
  }

  /// Serial execute_request on a sample of each kind (every 10th, at least
  /// 20 per kind), against warm tables; then cold acquires: evict_all()
  /// followed by acquire(name), three rounds over every table.
  void probe(Tracer& tr, Metrics& m) override {
    TableRegistry registry;
    {
      std::ifstream mf(manifest_path());
      load_table_manifest(mf, registry);
    }
    std::map<std::string, TableHandle> handles;
    std::map<std::string, std::optional<SrgScratch>> scratch;
    for (const auto& name : registry.defined_names()) {
      handles[name] = registry.acquire(name);
    }
    ExecPolicy policy;
    policy.threads = kThreads;
    policy.batch_size = kBatch;
    std::map<RequestKind, std::vector<double>> exec_ms;
    std::map<RequestKind, std::uint64_t> seen;
    std::ifstream rf(requests_path());
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(rf, line)) {
      const ServeRequest req = parse_request_line(line, ++line_no);
      const std::uint64_t step = std::clamp<std::uint64_t>(kind_count(req.kind) / 20, 1, 10);
      if (seen[req.kind]++ % step != 0) continue;
      Scope s(tr, "serve.execute_request", "serve");
      execute_request(req, *handles.at(req.table), scratch[req.table], policy);
      exec_ms[req.kind].push_back(s.stop() * 1e3);
    }
    for (const auto& [kind, samples] : exec_ms) {
      const std::string k = request_kind_name(kind);
      m["serve.execute_ms_p50." + k] = {percentile(samples, 0.50), "ms"};
      // The highest percentile reported has at least ten samples beyond it.
      if (samples.size() >= 100) {
        m["serve.execute_ms_p90." + k] = {percentile(samples, 0.90), "ms"};
      }
    }

    std::vector<double> snapshot_ms;
    std::vector<double> build_ms;
    for (int round = 0; round < 3; ++round) {
      for (const auto& [name, handle] : handles) {
        registry.evict_all();
        Scope s(tr, "serve.acquire", "serve");
        registry.acquire(name);
        (name == "t8" ? build_ms : snapshot_ms).push_back(s.stop() * 1e3);
      }
    }
    m["serve.acquire_miss_ms.snapshot"] = {summarize(snapshot_ms).median, "ms"};
    m["serve.acquire_miss_ms.build"] = {summarize(build_ms).median, "ms"};
  }

  std::vector<std::string> layers() const override { return {"cli", "serve"}; }

 private:
  using GraphMaker = std::function<GeneratedGraph()>;
  static std::vector<std::pair<std::string, GraphMaker>> snapshot_tables() {
    return {{"t10", [] { return torus_graph(10, 10); }},
            {"t12", [] { return torus_graph(12, 12); }},
            {"hc7", [] { return hypercube(7); }},
            {"ccc4", [] { return cube_connected_cycles(4); }}};
  }

  static std::uint64_t kind_count(RequestKind kind) {
    for (const auto& [k, count] : kMix) {
      if (k == kind) return count;
    }
    return 0;
  }

  static std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  /// The seeded request stream: kinds in a shuffled order with exact
  /// shares; delivery and sweep spread over all five tables, check on the
  /// two 64-node tables, certify on the planner-built one.
  std::string make_requests() const {
    const std::vector<std::pair<std::string, std::uint64_t>> tables{
        {"t10", 100}, {"t12", 144}, {"hc7", 128}, {"ccc4", 64}, {"t8", 64}};
    std::vector<RequestKind> kinds;
    for (const auto& [kind, count] : kMix) kinds.insert(kinds.end(), count, kind);
    Rng rng(seed_ ^ 0x5e7e5e7eULL);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.below(i)]);
    }
    std::string out;
    for (const RequestKind kind : kinds) {
      const auto& [table, nodes] = tables[rng.below(tables.size())];
      const std::string seed = " seed=" + std::to_string(rng.below(1u << 30));
      switch (kind) {
        case RequestKind::kDelivery: {
          const auto faults = rng.sample(nodes, 1 + rng.below(3));
          out += "delivery " + table + " faults=";
          for (std::size_t j = 0; j < faults.size(); ++j) {
            out += (j > 0 ? "," : "") + std::to_string(faults[j]);
          }
          out += " pairs=8" + seed + '\n';
          break;
        }
        case RequestKind::kSweep:
          out += "sweep " + table + " f=" + std::to_string(2 + rng.below(3)) +
                 " sets=20" + seed + '\n';
          break;
        case RequestKind::kCheck:
          out += std::string("check ") + (rng.below(2) == 0 ? "ccc4" : "t8") +
                 " f=2 claimed=6" + seed + '\n';
          break;
        case RequestKind::kCertify:
          out += "certify t8" + seed + '\n';
          break;
      }
    }
    return out;
  }

  std::string manifest_path() const { return (dir_ / "tables.txt").string(); }
  std::string requests_path() const { return (dir_ / "requests.txt").string(); }
};

// ---- run context ----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// `git rev-parse HEAD` when git and a repository are present, else "".
std::string git_head(Spawner& spawner, const fs::path& work) {
  try {
    const ChildRun r = spawner.run({"git", "rev-parse", "HEAD"}, "/dev/null",
                                   work / "git.out", work / "git.err", true);
    if (r.exit_code != 0) return {};
    return r.out.substr(0, r.out.find('\n'));
  } catch (const std::exception&) {
    return {};
  }
}

std::string run_context_json(Spawner& spawner, const fs::path& work) {
  std::vector<std::string> isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("fma")) isa.push_back("fma");
  if (__builtin_cpu_supports("bmi2")) isa.push_back("bmi2");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  if (__builtin_cpu_supports("avx512bw")) isa.push_back("avx512bw");
  if (__builtin_cpu_supports("avx512vl")) isa.push_back("avx512vl");
#endif
  std::string lanes;
  try {
    lanes = std::to_string(resolve_lane_width(0));
  } catch (const std::exception&) {
    lanes = "null";
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string head = git_head(spawner, work);
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << json_str(cpu_model())
     << ", \"isa\": " << json_list(isa)
     << ", \"library_cpu_features\": {\"avx2\": "
     << (cpu_features().avx2 ? "true" : "false")
     << ", \"avx512f\": " << (cpu_features().avx512f ? "true" : "false")
     << "}, \"lane_width\": " << lanes
     << ", \"compiler\": " << json_str(__VERSION__)
     << ", \"build_type\": " << json_str(FTROUTE_E2E_BUILD_TYPE)
     << ", \"ndebug\": " << (ndebug ? "true" : "false")
     << ", \"cli\": " << json_str(kCli)
     << ", \"git_head\": " << (head.empty() ? "null" : json_str(head)) << "}";
  return os.str();
}

// ---- driver -------------------------------------------------------------------------

const std::vector<std::string> kWorkloadNames{"gray_sweep", "dist_sweep",
                                              "stream_sweep", "serve_mixed"};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  std::uint64_t reps = 5;
  std::uint64_t seconds = 0;  // 0: run exactly --reps rounds
  bool trace = false;
  std::string out;
};

int usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: bench_e2e [--workload all|gray_sweep|dist_sweep|"
               "stream_sweep|serve_mixed]\n"
               "                 [--seed S] [--reps R] [--seconds T] "
               "[--trace 0|1]\n"
               "                 [--out FILE]\n";
  return 2;
}

std::optional<Options> parse_options(int argc, char** argv, std::string& why) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      why = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    auto number = [&](std::uint64_t& into) {
      const auto v = parse_u64(value);
      if (!v) why = "bad value '" + value + "' for " + flag;
      into = v.value_or(0);
      return v.has_value();
    };
    std::uint64_t trace = 0;
    bool ok = true;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      ok = number(o.seed);
    } else if (flag == "--reps") {
      ok = number(o.reps) && o.reps > 0;
    } else if (flag == "--seconds") {
      ok = number(o.seconds);
    } else if (flag == "--trace") {
      ok = number(trace) && trace <= 1;
      o.trace = trace == 1;
    } else if (flag == "--out") {
      o.out = value;
    } else {
      why = "unknown flag " + flag;
      return std::nullopt;
    }
    if (!ok) {
      if (why.empty()) why = "bad value '" + value + "' for " + flag;
      return std::nullopt;
    }
  }
  if (o.workload != "all" &&
      std::find(kWorkloadNames.begin(), kWorkloadNames.end(), o.workload) ==
          kWorkloadNames.end()) {
    why = "unknown workload " + o.workload;
    return std::nullopt;
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const fs::path& dir,
                                        std::uint64_t seed) {
  if (name == "gray_sweep") return std::make_unique<SweepWorkload>(name, dir, seed, false);
  if (name == "dist_sweep") return std::make_unique<SweepWorkload>(name, dir, seed, true);
  if (name == "stream_sweep") return std::make_unique<StreamWorkload>(name, dir, seed);
  return std::make_unique<ServeWorkload>(name, dir, seed);
}

/// Everything measured for one workload.
struct Series {
  std::vector<double> setup_s, wall_s, cpu_s, peak_rss_mb, items_per_s;
  /// Top-level span of each replay (traced mode only).
  std::vector<double> replay_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Stdout every run must print: the in-process reference, the replay's
  /// output, or else the first run that passed its checks.
  std::string expected;
};

/// Round-robin verb runs: one run of every workload per round, so drift on
/// a shared host spreads over all of them. In end-to-end mode each run is
/// preceded by a timed setup (setup is deterministic, so the inputs stay
/// byte-identical), which spreads the setup_s samples over the whole run
/// instead of its first second. In traced mode each run is followed by an
/// untraced replay, so the replay's top-level span is a median too when it
/// is set against the verb's wall time.
void run_rounds(Spawner& spawner,
                const std::vector<std::unique_ptr<Workload>>& workloads,
                std::vector<Series>& series, const Options& opts,
                std::uint64_t min_rounds) {
  const auto t0 = Clock::now();
  std::vector<double> round_s;
  for (std::uint64_t round = 0;; ++round) {
    if (opts.seconds > 0) {
      const double elapsed = seconds_between(t0, Clock::now());
      if (round >= min_rounds &&
          elapsed + summarize(round_s).median > static_cast<double>(opts.seconds)) {
        break;
      }
    } else if (round >= opts.reps) {
      break;
    }
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      Workload& w = *workloads[i];
      Series& s = series[i];
      Tracer off(false);
      if (!opts.trace) {
        const auto t0 = Clock::now();
        w.setup(off);
        s.setup_s.push_back(seconds_between(t0, Clock::now()));
      }
      const ChildRun run = spawner.run(w.command(), w.stdin_path(),
                                       w.dir() / "cli.out", w.dir() / "cli.err");
      const std::uint64_t failed = w.check(run, s.expected, s.problems);
      s.attempted += w.ops_per_run();
      s.failed += failed;
      if (s.expected.empty() && failed == 0) s.expected = run.out;
      s.wall_s.push_back(run.wall_s);
      s.cpu_s.push_back(run.cpu_s);
      s.peak_rss_mb.push_back(run.peak_rss_mb);
      s.items_per_s.push_back(static_cast<double>(w.items()) / run.wall_s);
      if (opts.trace) {
        Metrics ignored;
        const Replay r = w.replay(off, ignored);
        s.replay_s.push_back(r.root_s);
        s.attempted += w.ops_per_run();
        s.failed += w.check_stdout(r.stdout_text, s.expected, s.problems);
      }
    }
    round_s.push_back(seconds_between(r0, Clock::now()));
  }
}

struct E2eMetric {
  const char* name;
  const char* unit;
  const char* better;
  std::vector<double> Series::*samples;
};

const std::vector<E2eMetric> kE2eMetrics{
    {"setup_s", "s", "lower", &Series::setup_s},
    {"wall_s", "s", "lower", &Series::wall_s},
    {"items_per_s", "1/s", "higher", &Series::items_per_s},
    {"cpu_s", "s", "lower", &Series::cpu_s},
    {"peak_rss_mb", "MB", "lower", &Series::peak_rss_mb},
};

double failed_frac(const Series& s) {
  return s.attempted > 0
             ? static_cast<double>(s.failed) / static_cast<double>(s.attempted)
             : 0.0;
}

int run(const Options& opts, Spawner& spawner) {
  const fs::path out_dir = "bench-out";
  const fs::path work = out_dir / "work";
  fs::create_directories(work);
  const std::string tag = opts.workload + "-seed" + std::to_string(opts.seed) +
                          (opts.trace ? "-trace" : "");
  const fs::path out_path =
      opts.out.empty() ? out_dir / ("e2e-" + tag + ".json") : fs::path(opts.out);
  const fs::path trace_path =
      out_dir / ("trace-seed" + std::to_string(opts.seed) + ".json");

  // The layer breakdown compares workloads, so a traced run covers all four.
  std::vector<std::string> names = kWorkloadNames;
  if (!opts.trace && opts.workload != "all") names = {opts.workload};
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const auto& n : names) workloads.push_back(make_workload(n, work / n, opts.seed));
  std::vector<Series> series(workloads.size());

  Metrics layer;
  std::map<std::string, double> unaccounted_share;
  std::vector<std::string> warnings;
  Tracer tr(opts.trace);
  if (!opts.trace) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      Tracer off(false);
      const auto t0 = Clock::now();
      workloads[i]->setup(off);
      series[i].setup_s.push_back(seconds_between(t0, Clock::now()));
      series[i].expected = workloads[i]->reference();
    }
    run_rounds(spawner, workloads, series, opts, 3);
  } else {
    for (const auto& w : workloads) {
      tr.set_workload(w->name());
      Scope s(tr, "bench.setup", "bench");
      w->setup(tr);
    }
    std::vector<Replay> replays;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      Workload& w = *workloads[i];
      tr.set_workload(w.name());
      replays.push_back(w.replay(tr, layer));
      Series& s = series[i];
      s.expected = replays.back().stdout_text;
      s.replay_s.push_back(replays.back().root_s);
      s.attempted += w.ops_per_run();
      s.failed += w.check_stdout(s.expected, "", s.problems);
    }
    if (replays[0].stdout_text != replays[1].stdout_text) {
      series[1].problems.push_back("dist_sweep: replay stdout differs from gray_sweep's");
      ++series[1].failed;
    }
    if (layer["dist.units_retried"].value + layer["dist.units_inline"].value +
            layer["dist.workers_lost"].value > 0) {
      series[1].problems.push_back("dist_sweep: replay retried or lost units");
      ++series[1].failed;
    }
    for (const auto& w : workloads) {
      tr.set_workload(w->name());
      w->probe(tr, layer);
    }
    run_rounds(spawner, workloads, series, opts, 2);

    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const std::string& name = workloads[i]->name();
      const double wall = summarize(series[i].wall_s).median;
      const double unaccounted = wall - summarize(series[i].replay_s).median;
      layer["cli.unaccounted_s." + name] = {unaccounted, "s"};
      unaccounted_share[name] = wall > 0 ? unaccounted / wall : 0.0;
      if (std::abs(unaccounted_share[name]) > 0.10) {
        warnings.push_back(name + ": cli.unaccounted_s is " +
                           json_num(100.0 * unaccounted_share[name]) +
                           "% of wall_s; the replay no longer mirrors the verb");
      }
      const auto self = tr.self_times(replays[i].root);
      for (const auto& l : workloads[i]->layers()) {
        const auto it = self.find(l);
        layer[l + ".self_s." + name] = {it == self.end() ? 0.0 : it->second, "s"};
      }
    }
    double gen_s = 0.0;
    double plan_s = 0.0;
    for (const Span& s : tr.spans()) {
      if (s.layer == "gen") gen_s += s.end - s.start;
      if (s.layer == "core") plan_s += s.end - s.start;
    }
    layer["gen.graph_ms"] = {gen_s * 1e3, "ms"};
    layer["core.plan_build_ms"] = {plan_s * 1e3, "ms"};
    tr.write_chrome(trace_path);
  }

  // ---- report ----
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream wl_json;
  Metrics final_metrics;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = *workloads[i];
    const Series& s = series[i];
    attempted += s.attempted;
    failed += s.failed;
    std::cout << "== " << w.name() << ": " << w.items()
              << (w.name() == "serve_mixed" ? " requests" : " fault sets")
              << " per run\n  $";
    for (const auto& a : w.command()) std::cout << ' ' << a;
    std::cout << '\n';
    wl_json << (i > 0 ? ",\n    " : "") << json_str(w.name())
            << ": {\"command\": " << json_list(w.command())
            << ", \"items\": " << w.items() << ", \"attempted\": " << s.attempted
            << ", \"failed\": " << s.failed
            << ", \"problems\": " << json_list(s.problems) << ", \"metrics\": {";
    bool first = true;
    for (const auto& m : kE2eMetrics) {
      const auto& samples = s.*m.samples;
      if (samples.empty()) continue;
      const Summary sum = summarize(samples);
      std::cout << "  " << std::left << std::setw(12) << m.name << std::right
                << ' ' << json_num(sum.median) << ' ' << m.unit << "  (q1 "
                << json_num(sum.q1) << ", q3 " << json_num(sum.q3)
                << ", n=" << sum.n << ")\n";
      wl_json << (first ? "" : ", ") << json_str(m.name) << ": {\"unit\": "
              << json_str(m.unit) << ", \"better\": " << json_str(m.better)
              << ", \"median\": " << json_num(sum.median)
              << ", \"q1\": " << json_num(sum.q1)
              << ", \"q3\": " << json_num(sum.q3) << ", \"n\": " << sum.n
              << ", \"samples\": " << json_list(samples) << "}";
      first = false;
      const std::string key =
          names.size() == 1 ? m.name : w.name() + "." + m.name;
      final_metrics[key] = {sum.median, m.unit};
    }
    std::cout << "  failed_frac  " << json_num(failed_frac(s)) << " share  ("
              << s.failed << " of " << s.attempted << " operations)\n";
    wl_json << ", \"failed_frac\": {\"unit\": \"share\", \"better\": \"lower\", "
               "\"median\": "
            << json_num(failed_frac(s)) << ", \"q1\": " << json_num(failed_frac(s))
            << ", \"q3\": " << json_num(failed_frac(s)) << ", \"n\": 1"
            << ", \"samples\": [" << json_num(failed_frac(s)) << "]}}}";
    for (const auto& p : s.problems) std::cout << "  FAILED CHECK: " << p << '\n';
  }
  if (opts.trace) {
    std::cout << "== per-layer metrics (traced replay)\n";
    for (const auto& [name, m] : layer) {
      std::cout << "  " << std::left << std::setw(44) << name << std::right
                << ' ' << json_num(m.value) << ' ' << m.unit << '\n';
    }
    std::cout << "== replay fidelity (cli.unaccounted_s / wall_s)\n";
    for (const auto& [name, share] : unaccounted_share) {
      std::cout << "  " << std::left << std::setw(14) << name << std::right
                << ' ' << json_num(100.0 * share) << " %\n";
    }
    for (const auto& w : warnings) std::cout << "  WARNING: " << w << '\n';
    std::cout << "trace: " << trace_path.string() << " (" << tr.size()
              << " spans)\n";
    final_metrics = layer;
  }
  const bool correct = failed == 0;

  std::ostringstream res;
  res << "{\n  \"schema\": \"ftroute-bench-e2e/1\",\n  \"mode\": "
      << json_str(opts.trace ? "trace" : "e2e") << ",\n  \"seed\": " << opts.seed
      << ",\n  \"reps\": " << opts.reps << ",\n  \"seconds\": " << opts.seconds
      << ",\n  \"context\": " << run_context_json(spawner, work)
      << ",\n  \"workloads\": {\n    " << wl_json.str() << "\n  },\n  \"per_layer\": "
      << json_metrics(layer) << ",\n  \"warnings\": " << json_list(warnings)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << "\n}\n";
  write_file(out_path, res.str());
  std::cout << "results: " << out_path.string() << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << json_metrics(final_metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string why;
  const auto opts = parse_options(argc, argv, why);
  if (!opts) return usage(why);
  try {
    Spawner spawner;
    return run(*opts, spawner);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
