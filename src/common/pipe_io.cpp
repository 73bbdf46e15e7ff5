#include "common/pipe_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/contracts.hpp"

namespace ftr {

const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kClosed:
      return "closed";
    case IoStatus::kError:
      return "error";
  }
  return "?";
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  });
}

IoStatus read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return IoStatus::kClosed;  // EOF mid-transfer loses the frame
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::write(fd, p + put, n - put);
    if (w >= 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EPIPE) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

void set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  FTR_EXPECTS_MSG(flags != -1, "fcntl(F_GETFL) failed on fd " << fd);
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  FTR_EXPECTS_MSG(::fcntl(fd, F_SETFL, want) != -1,
                  "fcntl(F_SETFL) failed on fd " << fd);
}

IoStatus read_available(int fd, std::vector<unsigned char>& out,
                        std::size_t max, std::size_t& appended) {
  appended = 0;
  unsigned char chunk[4096];
  while (appended < max) {
    const std::size_t want = std::min(sizeof(chunk), max - appended);
    const ssize_t r = ::read(fd, chunk, want);
    if (r > 0) {
      out.insert(out.end(), chunk, chunk + r);
      appended += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return appended > 0 ? IoStatus::kOk : IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

// --- whole files -------------------------------------------------------------

void write_file_exact(const std::string& path, const void* data,
                      std::size_t n) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd == -1 && errno == EINTR);
  FTR_EXPECTS_MSG(fd != -1, "cannot open '" << path << "' for writing: "
                                            << std::strerror(errno));
  const IoStatus s = write_exact(fd, data, n);
  if (s != IoStatus::kOk) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());  // never leave a silently short file behind
    FTR_EXPECTS_MSG(false, "short write to '" << path << "' ("
                                              << io_status_name(s) << ", "
                                              << std::strerror(err) << ")");
  }
  int rc;
  do {
    rc = ::close(fd);
  } while (rc == -1 && errno == EINTR);
  FTR_EXPECTS_MSG(rc == 0,
                  "close of '" << path << "' failed: " << std::strerror(errno));
}

std::vector<unsigned char> read_file_exact(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd == -1 && errno == EINTR);
  FTR_EXPECTS_MSG(fd != -1, "cannot open '" << path << "' for reading: "
                                            << std::strerror(errno));
  std::vector<unsigned char> buf;
  IoStatus s = IoStatus::kOk;
  try {
    buf.resize(static_cast<std::size_t>(fd_size(fd)));
    if (!buf.empty()) s = pread_exact(fd, buf.data(), buf.size(), 0);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  FTR_EXPECTS_MSG(s == IoStatus::kOk,
                  "short read from '" << path << "' (" << io_status_name(s)
                                      << ")");
  return buf;
}

int open_unlinked_temp() {
  const char* base = ::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && *base ? base : "/tmp") +
                     "/ftroute.XXXXXX";
  std::vector<char> path(tmpl.begin(), tmpl.end());
  path.push_back('\0');
  const int fd = ::mkstemp(path.data());
  FTR_EXPECTS_MSG(fd != -1,
                  "mkstemp('" << tmpl << "') failed: " << std::strerror(errno));
  ::unlink(path.data());
  return fd;
}

IoStatus pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, p + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

std::uint64_t fd_size(int fd) {
  struct stat st;
  FTR_EXPECTS_MSG(::fstat(fd, &st) == 0,
                  "fstat failed on fd " << fd << ": " << std::strerror(errno));
  return static_cast<std::uint64_t>(st.st_size);
}

// --- children ----------------------------------------------------------------

namespace {

ChildExit decode_status(int status) {
  ChildExit e;
  if (WIFEXITED(status)) {
    e.exited = true;
    e.status = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    e.signaled = true;
    e.status = WTERMSIG(status);
  }
  return e;
}

}  // namespace

std::optional<ChildExit> try_reap_child(pid_t pid) {
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid, &status, WNOHANG);
  } while (rc == -1 && errno == EINTR);
  if (rc == 0) return std::nullopt;
  if (rc == -1) return ChildExit{};  // already reaped elsewhere; nothing to say
  return decode_status(status);
}

ChildExit reap_child(pid_t pid) {
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid, &status, 0);
  } while (rc == -1 && errno == EINTR);
  if (rc == -1) return ChildExit{};
  return decode_status(status);
}

ChildExit kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  return reap_child(pid);
}

}  // namespace ftr
