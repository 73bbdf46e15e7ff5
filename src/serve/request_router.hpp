// Multi-table serving, part 2: the request router.
//
// A serving process consumes a stream of heterogeneous requests — tolerance
// checks, fault sweeps, delivery measurements, certifications — each tagged
// with the name of the table it targets. serve_requests() is the batched
// executor over a TableRegistry:
//
//  * requests are read into bounded windows (batch_size * workers), so
//    memory is constant in the stream length, exactly like the fault-sweep
//    engine this layer wraps;
//  * within a window, requests are grouped by table (first-appearance
//    order) and each table's handle is acquired ONCE — a warm registry
//    therefore serves the whole group with zero preprocessing, and handles
//    pin their entries for the duration of the window even if a later
//    acquire evicts them;
//  * execution fans the window across parallel_for_chunks workers. The
//    execution order lists each table's requests contiguously, so a worker
//    chunk builds one SrgScratch per table it crosses and reuses it across
//    that table's requests;
//  * every response is a pure function of (request, table contents) — each
//    request runs its kernels at threads=1 inside its worker, randomized
//    kernels are seeded from the request, and nothing about residency or
//    scheduling leaks into the response text. Responses are emitted in
//    REQUEST ORDER, so serving output is bit-identical for any thread
//    count and any batch size (the differential suite in
//    tests/test_serve.cpp pins this against the single-table paths).
//
// Request lines ('#' comments, blank lines skipped):
//   check    <table> [f=<F>] [claimed=<D>] [seed=<S>]
//   sweep    <table> [f=<F>] [sets=<N>] [seed=<S>] [pairs=<P>] [exhaustive]
//   delivery <table> faults=<v,v,...> [pairs=<P>] [seed=<S>]
//   certify  <table> [f=<F>] [claimed=<D>] [seed=<S>]
// certify defaults its (f, claimed) to the entry's planner claims; for
// file-loaded tables (no plan) they must be given explicitly. Keys are
// validated against the kind (a silently dropped claimed= on a sweep would
// read as a verification that never ran), and sweeps are capped at 10^7
// fault sets per request so one astronomical `exhaustive` cannot stall a
// multi-tenant window. A response line is "#<index> <kind> <table> ...",
// one per request; request-level failures (unknown table, out-of-range
// fault ids, over-cap sweeps, malformed lines) yield deterministic
// "... error: <reason>" responses instead of killing the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "fault/srg_engine.hpp"
#include "serve/table_registry.hpp"

namespace ftr {

enum class RequestKind : std::uint8_t { kCheck, kSweep, kDelivery, kCertify };

const char* request_kind_name(RequestKind kind);

struct ServeRequest {
  RequestKind kind = RequestKind::kCheck;
  std::string table;
  std::uint32_t faults = 1;          // f for check/sweep/certify
  bool have_faults = false;
  std::uint32_t claimed = 6;         // claimed bound for check/certify
  bool have_claimed = false;
  std::uint64_t seed = 7;
  std::uint64_t sets = 100;          // sampled sweep size
  bool exhaustive = false;           // sweep all C(n, f) sets instead
  std::size_t pairs = 0;             // delivery pairs (delivery defaults 4)
  std::vector<Node> fault_list;      // delivery's explicit fault set
  std::size_t line = 0;              // source line, 1-based (0 = synthetic)
  /// Nonempty when the source line failed to parse: the router answers it
  /// with "#<index> error: <parse_error>" instead of executing anything, so
  /// a malformed line never cuts the stream (a mid-window throw would make
  /// how many well-formed responses precede it depend on threads * batch).
  std::string parse_error;
};

/// Parses one request line. Throws ContractViolation naming `line_no` on
/// malformed input (unknown kind, bad key, non-numeric value).
ServeRequest parse_request_line(const std::string& line, std::size_t line_no);

/// Pull-based request stream, mirroring FaultSetSource: single-pass, not
/// thread-safe; the router consumes it from one thread.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual bool next(ServeRequest& out) = 0;
};

/// Line-delimited text feed (the CLI's `serve --requests FILE | --stdin`).
/// A malformed or over-long (> kMaxLineBytes) line yields a request whose
/// parse_error is set, so it is answered in place and the stream goes on.
class IstreamRequestSource final : public RequestSource {
 public:
  explicit IstreamRequestSource(std::istream& in) : in_(&in) {}
  bool next(ServeRequest& out) override;

 private:
  std::istream* in_;
  std::string line_;
  std::size_t line_no_ = 0;
};

/// Streams a materialized list (no copy; it must outlive the source).
class ExplicitRequestSource final : public RequestSource {
 public:
  explicit ExplicitRequestSource(const std::vector<ServeRequest>& requests)
      : requests_(&requests) {}
  bool next(ServeRequest& out) override;

 private:
  const std::vector<ServeRequest>* requests_;
  std::size_t pos_ = 0;
};

/// Progress snapshot handed to ServeOptions::on_progress between windows
/// (on the calling thread — never racing the workers).
struct ServeProgress {
  std::uint64_t requests_done = 0;
  double seconds = 0.0;
  TableRegistryStats registry;
  /// Work-stealing telemetry accumulated over the windows so far
  /// (scheduling-dependent — stderr probes only, never responses).
  ExecutorStats executor;
};

struct ServeOptions {
  /// How the router executes (see common/exec_policy.hpp): threads fan the
  /// request windows across workers, batch_size is requests per worker per
  /// window (clamped to 2^20 so batch * workers cannot overflow; the serve
  /// default is 64, not the policy's 1024), kernel/lanes drive every
  /// request's evaluation, progress_every schedules on_progress below.
  /// Responses never depend on any of it.
  ExecPolicy exec{.batch_size = 64};
  std::function<void(const ServeProgress&)> on_progress;
};

struct ServeSummary {
  std::uint64_t requests = 0;
  std::uint64_t checks = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t certifies = 0;
  std::uint64_t errors = 0;  // requests answered with an error response
  /// Registry telemetry after the last window (hits/builds/evictions).
  TableRegistryStats registry;
  /// Execution telemetry (not part of the deterministic output).
  unsigned threads_used = 1;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  /// Work-stealing executor counters accumulated over all windows.
  ExecutorStats executor;
};

/// Serves `source` to exhaustion, writing one response line per request to
/// `out` in request order. The response text is a pure function of the
/// request stream and the tables' contents — bit-identical for any
/// options.threads and options.batch_size.
ServeSummary serve_requests(TableRegistry& registry, RequestSource& source,
                            std::ostream& out,
                            const ServeOptions& options = {});

/// The per-request kernel the router fans out, exposed as the differential
/// test oracle: executes one request against one table and returns the
/// response body ("<kind> <name> ..." without the "#<index> " prefix).
/// `scratch` is the caller's reusable worker slot: it is (re)built from
/// table.index lazily, and ONLY for the request kinds that evaluate
/// through a scratch (delivery) — check/sweep/certify run on their own
/// internal scratches, so a stream without deliveries never constructs
/// one. Pure function of (request, table contents) — the policy's
/// kernel/lanes shape only throughput. Throws on invalid requests (the
/// router turns that into an error response).
std::string execute_request(const ServeRequest& request,
                            const ServedTable& table,
                            std::optional<SrgScratch>& scratch,
                            const ExecPolicy& policy = {});

}  // namespace ftr
