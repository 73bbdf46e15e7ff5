#include "dist/worker.hpp"

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <string>

#include "common/contracts.hpp"
#include "common/pipe_io.hpp"

namespace ftr {

WorkerFailSpec parse_worker_fail_spec(const char* spec) {
  WorkerFailSpec out;
  if (spec == nullptr || *spec == '\0') return out;
  const std::string s(spec);
  const auto c1 = s.find(':');
  const auto c2 = s.find(':', c1 == std::string::npos ? c1 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return out;
  const std::string mode = s.substr(0, c1);
  WorkerFailSpec::Mode m = WorkerFailSpec::Mode::kNone;
  if (mode == "exit") m = WorkerFailSpec::Mode::kExit;
  if (mode == "hang") m = WorkerFailSpec::Mode::kHang;
  if (m == WorkerFailSpec::Mode::kNone) return out;
  try {
    out.worker = static_cast<std::uint32_t>(
        std::stoul(s.substr(c1 + 1, c2 - c1 - 1)));
    out.unit_ordinal = std::stoull(s.substr(c2 + 1));
  } catch (const std::exception&) {
    return out;  // malformed numbers: injection disabled
  }
  out.mode = m;
  return out;
}

int run_worker_loop(int in_fd, int out_fd, const TableSnapshot& snapshot,
                    std::uint32_t worker_index) {
  const WorkerFailSpec fail =
      parse_worker_fail_spec(std::getenv("FTROUTE_TEST_WORKER_FAIL"));
  std::uint64_t units_seen = 0;
  WireFrame frame;
  for (;;) {
    const IoStatus rs = read_frame(in_fd, frame);
    if (rs == IoStatus::kClosed) return 0;  // coordinator closed: clean exit
    if (rs != IoStatus::kOk) return 3;
    if (frame.type != FrameType::kUnit) return 4;
    std::uint64_t unit_id = ~std::uint64_t{0};
    try {
      const UnitSpec unit = decode_unit(frame.payload);
      unit_id = unit.unit_id;
      const std::uint64_t ordinal = units_seen++;
      if (fail.mode != WorkerFailSpec::Mode::kNone &&
          fail.worker == worker_index && fail.unit_ordinal == ordinal) {
        if (fail.mode == WorkerFailSpec::Mode::kExit) return 7;
        for (;;) ::pause();  // until the coordinator's watchdog SIGKILLs us
      }
      const auto reply = pack_frame(
          FrameType::kSweepResult,
          encode_sweep_result(unit_id, execute_unit(*snapshot.index, unit)));
      if (write_exact(out_fd, reply.data(), reply.size()) != IoStatus::kOk) {
        return 5;
      }
    } catch (const std::exception& e) {
      const auto reply =
          pack_frame(FrameType::kError, encode_error(unit_id, e.what()));
      (void)write_exact(out_fd, reply.data(), reply.size());
      return 6;
    }
  }
}

}  // namespace ftr
