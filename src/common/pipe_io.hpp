// POSIX byte-plumbing for the multi-process layer (and for every path that
// writes a whole file): EINTR-safe full reads/writes on file descriptors,
// a nonblocking drain for the coordinator's pipe buffers, whole-file
// read/write helpers, and child-process reaping with exit-status capture.
//
// Why this exists as a layer: raw read(2)/write(2) are allowed to transfer
// fewer bytes than asked (pipe capacity, signals), and a signal landing
// mid-call yields EINTR — code that treats one syscall as one transfer
// loses or duplicates bytes exactly when the system is under load. Every
// helper here loops to completion, restarts on EINTR, and reports outcomes
// as values (IoStatus) rather than exceptions, because "the peer died" is
// an expected event for the coordinator, not a programming error. The
// whole-file helpers throw ContractViolation instead: a short write of a
// snapshot IS an error, and the callers (save_table_snapshot_file, the
// text writers) want the loud failure.
//
// SIGPIPE: writing to a pipe whose read end closed kills the process by
// default. ignore_sigpipe() flips the disposition to SIG_IGN once so the
// write returns EPIPE (surfaced as IoStatus::kClosed) and the coordinator
// can treat it as a dead worker. Callers that fork/pipe must call it
// before the first write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ftr {

/// Outcome of a descriptor transfer. kClosed covers both EOF on read and
/// EPIPE on write — "the other side is gone"; kError is any other errno
/// (captured in last_errno by the frame layer's callers via errno itself).
enum class IoStatus : std::uint8_t { kOk, kClosed, kError };

const char* io_status_name(IoStatus s);

/// Installs SIG_IGN for SIGPIPE (idempotent, process-wide). Must be called
/// before writing to pipes whose reader may exit.
void ignore_sigpipe();

/// Reads exactly `n` bytes, looping over short reads and restarting on
/// EINTR. kClosed if EOF arrives before `n` bytes (a half-read frame from a
/// dying peer is a closed stream, not data).
IoStatus read_exact(int fd, void* buf, std::size_t n);

/// Writes exactly `n` bytes, looping over short writes and restarting on
/// EINTR. kClosed on EPIPE.
IoStatus write_exact(int fd, const void* buf, std::size_t n);

/// Sets/clears O_NONBLOCK.
void set_nonblocking(int fd, bool nonblocking);

/// Reads whatever is available right now (up to `max`) into `out`'s end
/// without blocking (fd must be O_NONBLOCK). Returns kOk when bytes were
/// appended OR the pipe simply has nothing (would-block), kClosed on EOF,
/// kError otherwise. `appended` reports the byte count.
IoStatus read_available(int fd, std::vector<unsigned char>& out,
                        std::size_t max, std::size_t& appended);

// --- whole files -------------------------------------------------------------

/// Writes `n` bytes to `path` (O_CREAT | O_TRUNC), full-write loop, fsync'd
/// optionally by the caller's filesystem discipline; throws ContractViolation
/// naming the path on open failure, short write, or close failure. This is
/// the single authority every "write a whole file" path routes through —
/// a partial write can no longer masquerade as success.
void write_file_exact(const std::string& path, const void* data,
                      std::size_t n);

/// Reads the whole of `path` with an EINTR-safe read loop. Throws
/// ContractViolation naming the path on open failure or short read.
std::vector<unsigned char> read_file_exact(const std::string& path);

/// Creates an anonymous temp file (mkstemp + immediate unlink): the
/// returned fd is the only handle — exactly the shape of an fd-passed
/// payload to forked workers. Throws on failure.
int open_unlinked_temp();

/// pread-based positional full read (no shared-offset races when the same
/// file description is inherited by many forked children).
IoStatus pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset);

/// Size of an open descriptor (fstat). Throws on failure.
std::uint64_t fd_size(int fd);

// --- children ----------------------------------------------------------------

/// How a child left: exit(code) or a terminating signal.
struct ChildExit {
  bool exited = false;    // true: left via exit(status)
  int status = 0;         // exit code when exited, signal number otherwise
  bool signaled = false;  // true: killed by a signal
};

/// Non-blocking reap (WNOHANG). nullopt while the child still runs.
std::optional<ChildExit> try_reap_child(pid_t pid);

/// Blocking reap, EINTR-safe.
ChildExit reap_child(pid_t pid);

/// SIGKILLs then reaps — the coordinator's hammer for hung workers.
ChildExit kill_and_reap(pid_t pid);

}  // namespace ftr
