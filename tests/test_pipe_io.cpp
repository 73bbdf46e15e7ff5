#include "common/pipe_io.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "gen/generators.hpp"
#include "routing/kernel.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

std::vector<unsigned char> pattern_bytes(std::size_t n) {
  std::vector<unsigned char> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<unsigned char>((i * 131 + 7) & 0xff);
  }
  return v;
}

TEST(PipeIo, ExactTransferLargerThanPipeCapacity) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // 1 MiB is far beyond any pipe buffer, so write_exact must loop over many
  // short writes while the reader drains concurrently.
  const auto sent = pattern_bytes(1 << 20);
  std::thread writer([&] {
    EXPECT_EQ(write_exact(fds[1], sent.data(), sent.size()), IoStatus::kOk);
    ::close(fds[1]);
  });
  std::vector<unsigned char> got(sent.size());
  EXPECT_EQ(read_exact(fds[0], got.data(), got.size()), IoStatus::kOk);
  writer.join();
  EXPECT_EQ(got, sent);
  ::close(fds[0]);
}

TEST(PipeIo, EintrStormDoesNotTearTransfers) {
  // A 1 ms interval timer with a no-op, non-SA_RESTART handler makes EINTR
  // land mid-read and mid-write constantly; the loops must absorb every one
  // without losing or duplicating bytes.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old_sa{};
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval timer{};
  timer.it_interval.tv_usec = 1000;
  timer.it_value.tv_usec = 1000;
  itimerval old_timer{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, &old_timer), 0);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const auto sent = pattern_bytes(1 << 22);
  std::thread writer([&] {
    EXPECT_EQ(write_exact(fds[1], sent.data(), sent.size()), IoStatus::kOk);
    ::close(fds[1]);
  });
  std::vector<unsigned char> got(sent.size());
  // Read in awkward chunk sizes so the storm hits many boundaries.
  std::size_t off = 0;
  while (off < got.size()) {
    const std::size_t k = std::min<std::size_t>(12345, got.size() - off);
    ASSERT_EQ(read_exact(fds[0], got.data() + off, k), IoStatus::kOk);
    off += k;
  }
  writer.join();
  EXPECT_EQ(got, sent);
  ::close(fds[0]);

  itimerval stop{};
  ::setitimer(ITIMER_REAL, &stop, nullptr);
  ::sigaction(SIGALRM, &old_sa, nullptr);
}

TEST(PipeIo, ReadExactReportsClosedOnShortStream) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char part[10] = {0};
  ASSERT_EQ(write_exact(fds[1], part, sizeof part), IoStatus::kOk);
  ::close(fds[1]);
  char buf[20];
  EXPECT_EQ(read_exact(fds[0], buf, sizeof buf), IoStatus::kClosed);
  ::close(fds[0]);
}

TEST(PipeIo, WriteExactReportsClosedOnEpipe) {
  ignore_sigpipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  const auto bytes = pattern_bytes(1 << 16);
  EXPECT_EQ(write_exact(fds[1], bytes.data(), bytes.size()), IoStatus::kClosed);
  ::close(fds[1]);
}

TEST(PipeIo, ReadAvailableSemantics) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  set_nonblocking(fds[0], true);
  std::vector<unsigned char> buf;
  std::size_t appended = 123;

  // Nothing buffered: would-block is kOk with zero bytes, not an error.
  EXPECT_EQ(read_available(fds[0], buf, 4096, appended), IoStatus::kOk);
  EXPECT_EQ(appended, 0u);

  const auto sent = pattern_bytes(100);
  ASSERT_EQ(write_exact(fds[1], sent.data(), sent.size()), IoStatus::kOk);
  EXPECT_EQ(read_available(fds[0], buf, 4096, appended), IoStatus::kOk);
  EXPECT_EQ(appended, 100u);
  EXPECT_EQ(buf, sent);

  ::close(fds[1]);
  EXPECT_EQ(read_available(fds[0], buf, 4096, appended), IoStatus::kClosed);
  ::close(fds[0]);
}

TEST(PipeIo, WholeFileRoundtripAndLoudFailure) {
  const std::string path = ::testing::TempDir() + "pipe_io_roundtrip.bin";
  const auto bytes = pattern_bytes(100000);
  write_file_exact(path, bytes.data(), bytes.size());
  EXPECT_EQ(read_file_exact(path), bytes);
  ::unlink(path.c_str());

  EXPECT_THROW(
      write_file_exact("/nonexistent-dir-ftr/x.bin", bytes.data(), bytes.size()),
      ContractViolation);
  EXPECT_THROW(read_file_exact(path), ContractViolation);  // was unlinked
}

TEST(PipeIo, UnlinkedTempAndPositionalReads) {
  const int fd = open_unlinked_temp();
  ASSERT_GE(fd, 0);
  const auto bytes = pattern_bytes(4096);
  ASSERT_EQ(write_exact(fd, bytes.data(), bytes.size()), IoStatus::kOk);
  EXPECT_EQ(fd_size(fd), bytes.size());

  // Positional reads never move the shared offset — two "processes" reading
  // disjoint ranges through one description must both see their range.
  std::vector<unsigned char> a(1000), b(1000);
  EXPECT_EQ(pread_exact(fd, a.data(), a.size(), 0), IoStatus::kOk);
  EXPECT_EQ(pread_exact(fd, b.data(), b.size(), 3000), IoStatus::kOk);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), bytes.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), bytes.begin() + 3000));
  // Reading past EOF is a closed stream, not garbage.
  EXPECT_EQ(pread_exact(fd, a.data(), a.size(), 4000), IoStatus::kClosed);
  ::close(fd);
}

TEST(PipeIo, ChildReapingCapturesExitAndSignal) {
  const pid_t exiter = ::fork();
  ASSERT_GE(exiter, 0);
  if (exiter == 0) ::_exit(7);
  const ChildExit e = reap_child(exiter);
  EXPECT_TRUE(e.exited);
  EXPECT_EQ(e.status, 7);
  EXPECT_FALSE(e.signaled);

  const pid_t sleeper = ::fork();
  ASSERT_GE(sleeper, 0);
  if (sleeper == 0) {
    for (;;) ::pause();
  }
  EXPECT_FALSE(try_reap_child(sleeper).has_value());
  const ChildExit k = kill_and_reap(sleeper);
  EXPECT_TRUE(k.signaled);
  EXPECT_EQ(k.status, SIGKILL);
}

// Regression for the file-writer audit: the table writer goes through
// write_file_exact, so a written file always roundtrips bit-exactly (a
// short write would have thrown and unlinked instead).
TEST(PipeIo, SaveRoutingTableFileRoundtrips) {
  const auto gg = cycle_graph(8);
  const auto kr = build_kernel_routing(gg.graph, 1);
  const std::string path = ::testing::TempDir() + "pipe_io_table.ftt";
  save_routing_table_file(kr.table, path);
  const auto bytes = read_file_exact(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
            routing_table_to_string(kr.table));
  ::unlink(path.c_str());
  EXPECT_THROW(save_routing_table_file(kr.table, "/nonexistent-dir-ftr/t.ftt"),
               ContractViolation);
}

}  // namespace
}  // namespace ftr
