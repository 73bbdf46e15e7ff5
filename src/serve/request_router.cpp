#include "serve/request_router.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/fault_sweep.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "fault/tolerance_check.hpp"
#include "graph/bfs.hpp"
#include "sim/network_sim.hpp"

namespace ftr {

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCheck:
      return "check";
    case RequestKind::kSweep:
      return "sweep";
    case RequestKind::kDelivery:
      return "delivery";
    case RequestKind::kCertify:
      return "certify";
  }
  return "?";
}

namespace {

std::uint64_t value_u64(const std::string& value, std::size_t line_no,
                        const std::string& key) {
  const auto v = parse_u64(value);
  FTR_EXPECTS_MSG(v.has_value(), "request line " << line_no << ": bad value '"
                                                 << value << "' for " << key
                                                 << '=');
  return *v;
}

// 32-bit values (f=, claimed=, node ids) are range-checked BEFORE the
// narrowing cast: 'f=4294967297' must be rejected, not silently served as
// f=1 — the same wrap class IstreamFaultSetSource rejects in fault feeds.
std::uint32_t value_u32(const std::string& value, std::size_t line_no,
                        const std::string& key) {
  const std::uint64_t v = value_u64(value, line_no, key);
  FTR_EXPECTS_MSG(v <= std::numeric_limits<std::uint32_t>::max(),
                  "request line " << line_no << ": value '" << value
                                  << "' out of range for " << key << '=');
  return static_cast<std::uint32_t>(v);
}

std::vector<Node> parse_node_list(const std::string& value,
                                  std::size_t line_no) {
  std::vector<Node> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    const std::string item = value.substr(start, comma - start);
    const auto v = parse_u64(item);
    FTR_EXPECTS_MSG(
        v.has_value() && *v <= std::numeric_limits<Node>::max(),
        "request line " << line_no << ": bad fault list '" << value << "'");
    out.push_back(static_cast<Node>(*v));
    start = comma + 1;
  }
  return out;
}

// "a,b,c" for response fields; "-" for an empty list.
std::string join_nodes(const std::vector<Node>& nodes) {
  if (nodes.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out;
}

std::string fmt_diameter(std::uint32_t d) {
  return d == kUnreachable ? "disconnected" : std::to_string(d);
}

}  // namespace

ServeRequest parse_request_line(const std::string& line, std::size_t line_no) {
  std::string text = line;
  const auto hash = text.find('#');
  if (hash != std::string::npos) text.resize(hash);
  std::istringstream fields(text);
  std::string word;
  FTR_EXPECTS_MSG(fields >> word,
                  "request line " << line_no << ": empty request");
  ServeRequest req;
  req.line = line_no;
  if (word == "check") {
    req.kind = RequestKind::kCheck;
  } else if (word == "sweep") {
    req.kind = RequestKind::kSweep;
  } else if (word == "delivery") {
    req.kind = RequestKind::kDelivery;
  } else if (word == "certify") {
    req.kind = RequestKind::kCertify;
  } else {
    FTR_EXPECTS_MSG(false, "request line " << line_no
                                           << ": unknown request kind '"
                                           << word << "'");
  }
  FTR_EXPECTS_MSG(fields >> req.table,
                  "request line " << line_no << ": missing table name");

  bool have_pairs = false;
  std::string token;
  while (fields >> token) {
    if (token == "exhaustive") {
      FTR_EXPECTS_MSG(req.kind == RequestKind::kSweep,
                      "request line " << line_no
                                      << ": 'exhaustive' is a sweep flag");
      req.exhaustive = true;
      continue;
    }
    const auto eq = token.find('=');
    FTR_EXPECTS_MSG(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
                    "request line " << line_no << ": expected key=value, got '"
                                    << token << "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // Keys are checked against the request kind, not just the key set: a
    // silently dropped `claimed=` on a sweep would read as a verification
    // that never ran.
    const auto for_kinds = [&](bool valid) {
      FTR_EXPECTS_MSG(valid, "request line " << line_no << ": " << key
                                             << "= is not valid for " << word
                                             << " requests");
    };
    if (key == "f") {
      for_kinds(req.kind != RequestKind::kDelivery);
      req.faults = value_u32(value, line_no, key);
      req.have_faults = true;
    } else if (key == "claimed") {
      for_kinds(req.kind == RequestKind::kCheck ||
                req.kind == RequestKind::kCertify);
      req.claimed = value_u32(value, line_no, key);
      req.have_claimed = true;
    } else if (key == "seed") {
      req.seed = value_u64(value, line_no, key);
    } else if (key == "sets") {
      for_kinds(req.kind == RequestKind::kSweep);
      req.sets = value_u64(value, line_no, key);
    } else if (key == "pairs") {
      for_kinds(req.kind == RequestKind::kSweep ||
                req.kind == RequestKind::kDelivery);
      req.pairs = static_cast<std::size_t>(value_u64(value, line_no, key));
      have_pairs = true;
    } else if (key == "faults") {
      FTR_EXPECTS_MSG(req.kind == RequestKind::kDelivery,
                      "request line " << line_no
                                      << ": faults=<list> is for delivery "
                                         "requests (use f=<count> here)");
      req.fault_list = parse_node_list(value, line_no);
    } else {
      FTR_EXPECTS_MSG(false, "request line " << line_no << ": unknown key '"
                                             << key << "'");
    }
  }
  if (req.kind == RequestKind::kDelivery) {
    FTR_EXPECTS_MSG(!req.fault_list.empty(),
                    "request line " << line_no
                                    << ": delivery needs faults=<v,v,...>");
    if (!have_pairs) req.pairs = 4;
  }
  return req;
}

bool IstreamRequestSource::next(ServeRequest& out) {
  try {
    if (!next_data_line(*in_, line_, line_no_)) return false;
    out = parse_request_line(line_, line_no_);
  } catch (const std::exception& e) {
    // A malformed or over-long line is answered as a deterministic error
    // response at its request index, not thrown mid-window: a throw here
    // would cut the stream at a point that depends on threads * batch_size
    // (how many windows already flushed), breaking the bit-identical-stdout
    // contract for the well-formed requests around it. next_data_line has
    // already skipped past the over-long line, so reading continues.
    out = ServeRequest{};
    out.line = line_no_;
    out.parse_error = e.what();
  }
  return true;
}

bool ExplicitRequestSource::next(ServeRequest& out) {
  if (pos_ == requests_->size()) return false;
  out = (*requests_)[pos_++];
  return true;
}

std::string execute_request(const ServeRequest& request,
                            const ServedTable& table,
                            std::optional<SrgScratch>& scratch,
                            const ExecPolicy& /*policy*/) {
  const std::size_t n = table.graph.num_nodes();
  std::ostringstream os;
  os << request_kind_name(request.kind) << ' ' << table.name;

  switch (request.kind) {
    case RequestKind::kCheck:
    case RequestKind::kCertify: {
      std::uint32_t f = request.faults;
      std::uint32_t claimed = request.claimed;
      if (request.kind == RequestKind::kCertify) {
        // Certify re-verifies the entry against its planner claims; tables
        // loaded from files carry no claims, so the request must bring its
        // own bounds.
        const bool has_plan = table.plan.guaranteed_diameter > 0;
        FTR_EXPECTS_MSG(
            has_plan || (request.have_faults && request.have_claimed),
            "certify '" << table.name
                        << "': table has no planner claims; give f= and "
                           "claimed=");
        if (!request.have_faults) f = table.plan.tolerated_faults;
        if (!request.have_claimed) claimed = table.plan.guaranteed_diameter;
        if (has_plan) {
          os << " construction=" << construction_name(table.plan.construction);
        }
      }
      FTR_EXPECTS_MSG(f <= n, "f = " << f << " exceeds n = " << n);
      // threads = 1: parallelism lives ACROSS requests; within one request
      // the check must be a pure serial function of (request, table).
      // (check_tolerance is thread-count-invariant anyway; this also keeps
      // workers from spawning nested pools.)
      ToleranceCheckOptions opts;
      opts.exec.threads = 1;
      // The hill-climber's seed comes from the entry's cached route-load
      // ranking, and the check runs on its shared index.
      Rng rng(request.seed);
      const auto report = check_tolerance(
          *table.index, f, claimed, rng(),
          with_route_load_seeds(table.route_load_ranking, f, opts));
      os << ' ' << report.summary() << " worst=" << join_nodes(report.worst_faults);
      break;
    }
    case RequestKind::kSweep: {
      FTR_EXPECTS_MSG(request.faults <= n,
                      "f = " << request.faults << " exceeds n = " << n);
      // Per-request compute cap: one `sweep ... exhaustive` over an
      // astronomical C(n, f) (or a typo'd sets=) must be REJECTED as a
      // deterministic error, not allowed to stall its window and every
      // request batched behind it — this layer serves many tenants.
      constexpr std::uint64_t kMaxSweepSetsPerRequest = 10'000'000;
      const std::uint64_t total =
          request.exhaustive ? binomial(n, request.faults) : request.sets;
      FTR_EXPECTS_MSG(total <= kMaxSweepSetsPerRequest,
                      "sweep of " << total
                                  << " fault sets exceeds the per-request cap "
                                  << kMaxSweepSetsPerRequest
                                  << " (run it via `ftroute sweep` instead)");
      FaultSweepOptions opts;
      opts.exec.threads = 1;
      opts.seed = request.seed;
      opts.delivery_pairs = request.pairs;
      const FaultSweepSummary summary =
          summarize_sweep_partial(execute_unit(
              *table.index, sweep_unit(request.exhaustive
                                           ? UnitKind::kSweepGray
                                           : UnitKind::kSweepSampled,
                                       request.faults, total, opts)));
      os << " sets=" << summary.total_sets
         << " worst=" << fmt_diameter(summary.worst_diameter)
         << " worst_index=" << summary.worst_index
         << " disconnected=" << summary.disconnected
         << " worst_set=" << join_nodes(summary.worst_faults);
      if (request.pairs > 0) {
        os << " pairs=" << summary.pairs_sampled
           << " delivered=" << summary.delivered << " avg_route_hops="
           << std::fixed << std::setprecision(3) << summary.avg_route_hops
           << " max_route_hops=" << summary.max_route_hops
           << " max_edge_hops=" << summary.max_edge_hops;
      }
      break;
    }
    case RequestKind::kDelivery: {
      for (const Node v : request.fault_list) {
        FTR_EXPECTS_MSG(v < n, "delivery fault id " << v
                                                    << " out of range (n = "
                                                    << n << ")");
      }
      // Delivery is the only kind that evaluates through the worker
      // scratch (check/sweep/certify run on their own internal ones), so
      // the scratch is built here on first use and reused while the slice
      // stays on this table's index.
      if (!scratch.has_value() || &scratch->index() != table.index.get()) {
        scratch.emplace(*table.index);
      }
      const auto res = scratch->evaluate(request.fault_list);
      Rng rng(request.seed);
      const auto delivery =
          measure_delivery(*scratch, request.pairs, rng);
      os << " faults=" << join_nodes(request.fault_list)
         << " diameter=" << fmt_diameter(res.diameter)
         << " survivors=" << res.survivors << " arcs=" << res.arcs
         << " pairs=" << delivery.pairs_sampled
         << " delivered=" << delivery.delivered << " avg_route_hops="
         << std::fixed << std::setprecision(3) << delivery.avg_route_hops
         << " max_route_hops=" << delivery.max_route_hops
         << " max_edge_hops=" << delivery.max_edge_hops;
      break;
    }
  }
  return os.str();
}

namespace {

// The execution rank of a request, longest first: certify, then check, then
// sweeps by descending set count, then deliveries. A pure function of
// (request, table), so the schedule never depends on timing.
std::pair<int, std::uint64_t> cost_rank(const ServeRequest& request,
                                        const ServedTable& table) {
  switch (request.kind) {
    case RequestKind::kCertify:
      return {0, 0};
    case RequestKind::kCheck:
      return {1, 0};
    case RequestKind::kSweep: {
      const std::uint64_t sets =
          request.exhaustive ? binomial(table.graph.num_nodes(), request.faults)
                             : request.sets;
      return {2, std::numeric_limits<std::uint64_t>::max() - sets};
    }
    case RequestKind::kDelivery:
      break;
  }
  return {3, 0};
}

// Emits progress between windows whenever the served count crosses a
// multiple of progress_every (mirrors the fault sweep's emitter).
struct ServeProgressEmitter {
  const ServeOptions& options;
  std::chrono::steady_clock::time_point t0;
  std::uint64_t next_at;

  ServeProgressEmitter(const ServeOptions& opts,
                       std::chrono::steady_clock::time_point start)
      : options(opts), t0(start), next_at(opts.exec.progress_every) {}

  void maybe_emit(std::uint64_t requests_done, const TableRegistry& registry,
                  const ExecutorStats& executor) {
    if (options.exec.progress_every == 0 || !options.on_progress) return;
    if (requests_done < next_at) return;
    ServeProgress p;
    p.requests_done = requests_done;
    p.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
    p.registry = registry.stats();
    p.executor = executor;
    options.on_progress(p);
    while (next_at <= requests_done) next_at += options.exec.progress_every;
  }
};

}  // namespace

ServeSummary serve_requests(TableRegistry& registry, RequestSource& source,
                            std::ostream& out, const ServeOptions& options) {
  ServeSummary summary;
  const unsigned workers = options.exec.resolved_threads();
  summary.threads_used = workers;
  // resolved_batch() keeps a typo'd huge --batch from wrapping window_cap
  // to zero (which would break the fill loop and drop every request).
  const std::size_t window_cap = options.exec.resolved_batch() * workers;

  std::vector<ServeRequest> window;
  // window_cap caps how many requests one window HOLDS, not what gets
  // pre-allocated: at the clamp ceiling (2^20 * 256 workers) an eager
  // reserve would be a multi-GB allocation before the first request is
  // read. Reserve modestly and let push_back grow to the actual fill.
  window.reserve(std::min<std::size_t>(window_cap, 4096));
  std::vector<std::string> responses;
  std::vector<std::uint8_t> failed;
  std::vector<std::size_t> order;
  std::vector<const ServedTable*> table_of;

  const auto t0 = std::chrono::steady_clock::now();
  ServeProgressEmitter progress(options, t0);
  for (;;) {
    window.clear();
    ServeRequest req;
    while (window.size() < window_cap && source.next(req)) {
      window.push_back(std::move(req));
    }
    if (window.empty()) break;
    const std::uint64_t base = summary.requests;

    // Group by table in first-appearance order and acquire each handle
    // ONCE per window, hits first: the groups already resident are touched
    // before any miss materializes, so a miss can never evict a table this
    // window was about to hit. A window's misses are then exactly its tables
    // that were not resident when it started. Handles pin their entries for
    // the window even if a later acquire evicts them.
    struct Group {
      const std::string* name = nullptr;
      bool acquired = false;
      TableHandle handle;
      std::string error;  // acquire failure, answered per-request
      std::vector<std::size_t> members;
    };
    std::unordered_map<std::string, std::size_t> group_of;
    std::vector<Group> groups;
    responses.assign(window.size(), {});
    failed.assign(window.size(), 0);
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (!window[i].parse_error.empty()) {
        responses[i] = "error: " + window[i].parse_error;
        failed[i] = 1;
        continue;
      }
      const auto [it, inserted] =
          group_of.try_emplace(window[i].table, groups.size());
      if (inserted) groups.emplace_back().name = &it->first;
      groups[it->second].members.push_back(i);
    }
    const auto acquire = [&](Group& g) {
      g.acquired = true;
      try {
        g.handle = registry.acquire(*g.name);
      } catch (const std::exception& e) {
        g.error = e.what();
      }
    };
    for (auto& g : groups) {
      if (registry.resident(*g.name)) acquire(g);
    }
    for (auto& g : groups) {
      if (!g.acquired) acquire(g);
    }

    // The executable requests in table-grouped order, then ranked longest
    // first (a stable sort, so ties keep the grouped order). Responses are
    // keyed by window index, so the emit below restores request order.
    order.clear();
    table_of.assign(window.size(), nullptr);
    for (const auto& group : groups) {
      for (const std::size_t i : group.members) {
        if (!group.error.empty()) {
          responses[i] = std::string(request_kind_name(window[i].kind)) + ' ' +
                         window[i].table + " error: " + group.error;
          failed[i] = 1;
        } else {
          table_of[i] = group.handle.get();
          order.push_back(i);
        }
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost_rank(window[a], *table_of[a]) <
                              cost_rank(window[b], *table_of[b]);
                     });

    // One request per chunk, chunk k the k-th ranked request: workers claim
    // chunks in ascending order, so a free worker always pulls the longest
    // request still waiting.
    ExecutorStats window_stats;
    parallel_for_chunks(
        order.size(), workers, 1,
        [&](std::size_t chunk, std::size_t, std::size_t, unsigned) {
          const std::size_t i = order[chunk];
          const ServedTable& entry = *table_of[i];
          // execute_request builds the scratch only for a delivery.
          std::optional<SrgScratch> scratch;
          try {
            responses[i] =
                execute_request(window[i], entry, scratch, options.exec);
          } catch (const std::exception& e) {
            // A request-level failure (bad ids, missing claims) is itself a
            // deterministic function of (request, table): answer it
            // instead of killing the stream.
            responses[i] = std::string(request_kind_name(window[i].kind)) +
                           ' ' + entry.name + " error: " + e.what();
            failed[i] = 1;
          }
        },
        &window_stats);
    summary.executor.accumulate(window_stats);

    for (std::size_t i = 0; i < window.size(); ++i) {
      out << '#' << (base + i) << ' ' << responses[i] << '\n';
      if (failed[i] != 0) {
        ++summary.errors;
        continue;
      }
      switch (window[i].kind) {
        case RequestKind::kCheck:
          ++summary.checks;
          break;
        case RequestKind::kSweep:
          ++summary.sweeps;
          break;
        case RequestKind::kDelivery:
          ++summary.deliveries;
          break;
        case RequestKind::kCertify:
          ++summary.certifies;
          break;
      }
    }
    summary.requests += window.size();
    progress.maybe_emit(summary.requests, registry, summary.executor);
    if (window.size() < window_cap) break;  // the stream ended mid-window
  }

  const auto t1 = std::chrono::steady_clock::now();
  summary.registry = registry.stats();
  summary.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (summary.seconds > 0.0 && summary.requests > 0) {
    summary.requests_per_sec =
        static_cast<double>(summary.requests) / summary.seconds;
  }
  return summary;
}

}  // namespace ftr
