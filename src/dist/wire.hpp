// Wire format for the multi-process sweep layer: length-prefixed,
// checksummed frames over pipes between the coordinator and its forked
// workers.
//
// A frame is a 24-byte header {magic u32, type u32, payload length u64,
// payload checksum u64} followed by the payload; the checksum is
// ftr_checksum64 — the same FNV-1a-over-LE-words hash the binary snapshot
// container uses, so one hashing authority covers both persistence and the
// wire. All integers are little-endian fixed width. Decoding is strict: bad
// magic, an absurd length, a checksum mismatch, payload truncation, and
// trailing bytes all throw ContractViolation — a torn frame from a dying
// worker surfaces as a loud error or a closed stream, never as data.
//
// The protocol is deliberately tiny: the coordinator sends kUnit frames
// (one UnitSpec each, see fault/work_unit.hpp; its ExecPolicy travels as
// two plain fields, threads u32 and batch_size u64, while progress_every
// stays in the coordinator), a worker answers every unit with exactly one
// kSweepResult frame carrying its SweepPartial (the unit_id leads the
// payload, so the coordinator can check that each unit merges once as it
// lands), or a kError frame carrying the exception text. Closing the unit pipe is the
// shutdown signal. Frame types 4 (the retired adversary result) and any
// other unknown type are rejected with the header.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "common/pipe_io.hpp"
#include "fault/work_unit.hpp"
#include "graph/graph.hpp"

namespace ftr {

enum class FrameType : std::uint32_t {
  kUnit = 2,
  kSweepResult = 3,
  kError = 6,
};

struct WireFrame {
  FrameType type = FrameType::kError;
  std::vector<unsigned char> payload;
};

/// Serializes a complete frame (header + payload), ready for the pipe.
std::vector<unsigned char> pack_frame(FrameType type,
                                      const std::vector<unsigned char>& payload);

/// Pops one complete frame off the front of `buf` (as filled by
/// read_available). Returns false when the buffered bytes do not yet hold a
/// whole frame; throws ContractViolation on bad magic, an unknown frame
/// type, an absurd length, or a checksum mismatch.
bool pop_frame(std::vector<unsigned char>& buf, WireFrame& out);

/// Blocking read of one frame (the worker side). kClosed on clean EOF
/// before the header — and on EOF mid-frame, since a half-delivered frame
/// from a dying peer is a closed stream, not data.
IoStatus read_frame(int fd, WireFrame& out);

// Payload encode/decode. Decoders are strict: truncation, trailing bytes,
// unknown unit kinds (the retired kinds 4-7 included), inverted unit
// windows (begin > end), and counts the remaining bytes cannot hold all
// throw ContractViolation before anything is allocated. Result payloads
// lead with the unit_id they answer.
std::vector<unsigned char> encode_unit(const UnitSpec& unit);
UnitSpec decode_unit(const std::vector<unsigned char>& payload);

std::vector<unsigned char> encode_sweep_result(std::uint64_t unit_id,
                                               const SweepPartial& partial);
std::pair<std::uint64_t, SweepPartial> decode_sweep_result(
    const std::vector<unsigned char>& payload);

std::vector<unsigned char> encode_error(std::uint64_t unit_id,
                                        const std::string& message);
std::pair<std::uint64_t, std::string> decode_error(
    const std::vector<unsigned char>& payload);

}  // namespace ftr
