#include "dist/wire.hpp"

#include <cstring>

#include "common/contracts.hpp"
#include "routing/serialization.hpp"

namespace ftr {
namespace {

constexpr std::uint32_t kFrameMagic = 0x57525446u;  // "FTRW" little-endian
constexpr std::size_t kHeaderBytes = 24;
// Sanity bound on payload length: a unit or result is at most a few MB (the
// largest is an explicit-set unit); anything bigger is a corrupt header.
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 30;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }
  void nodes(const std::vector<Node>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (Node x : v) u32(x);
  }
  void node_lists(const std::vector<std::vector<Node>>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& list : v) nodes(list);
  }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<unsigned char> take() { return std::move(out_); }

 private:
  std::vector<unsigned char> out_;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* p, std::size_t n) : p_(p), n_(n) {}

  std::uint8_t u8() {
    need(1);
    return p_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }
  std::vector<Node> nodes() {
    const std::uint32_t len = u32();
    // Bound before resize: a corrupt count must not drive a huge allocation.
    FTR_EXPECTS_MSG(std::size_t{len} * 4 <= n_ - pos_,
                    "wire payload truncated: " << len
                                               << "-node list exceeds frame");
    std::vector<Node> v(len);
    for (std::uint32_t i = 0; i < len; ++i) v[i] = u32();
    return v;
  }
  std::vector<std::vector<Node>> node_lists() {
    const std::uint32_t count = u32();
    // Each list costs at least its 4-byte length: bound before reserve.
    FTR_EXPECTS_MSG(std::size_t{count} * 4 <= n_ - pos_,
                    "wire payload truncated: " << count
                                               << " node lists exceed frame");
    std::vector<std::vector<Node>> v;
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) v.push_back(nodes());
    return v;
  }
  UnitKind unit_kind() {
    const std::uint32_t raw = u32();
    const auto kind = static_cast<UnitKind>(raw);
    switch (kind) {
      case UnitKind::kSweepGray:
      case UnitKind::kSweepSampled:
      case UnitKind::kSweepExplicit:
        return kind;
    }
    FTR_EXPECTS_MSG(false, "wire unit has unknown kind " << raw);
    return kind;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return s;
  }
  void expect_end() const {
    FTR_EXPECTS_MSG(pos_ == n_, "wire payload has " << (n_ - pos_)
                                                    << " trailing byte(s)");
  }

 private:
  void need(std::size_t k) const {
    FTR_EXPECTS_MSG(n_ - pos_ >= k, "wire payload truncated: need "
                                        << k << " byte(s), have "
                                        << (n_ - pos_));
  }
  const unsigned char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

void store_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}
void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
}
std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

// Validates a header; returns {type, payload_len, checksum}.
struct Header {
  std::uint32_t type;
  std::uint64_t len;
  std::uint64_t checksum;
};

Header parse_header(const unsigned char* h) {
  FTR_EXPECTS_MSG(load_u32(h) == kFrameMagic,
                  "wire frame has bad magic (stream corrupt or misaligned)");
  Header out;
  out.type = load_u32(h + 4);
  out.len = load_u64(h + 8);
  out.checksum = load_u64(h + 16);
  FTR_EXPECTS_MSG(out.len <= kMaxPayload,
                  "wire frame claims " << out.len
                                       << " payload bytes (corrupt length)");
  switch (static_cast<FrameType>(out.type)) {
    case FrameType::kUnit:
    case FrameType::kSweepResult:
    case FrameType::kError:
      return out;
  }
  FTR_EXPECTS_MSG(false, "wire frame has unknown type " << out.type);
  return out;
}

void check_payload(const Header& h, const unsigned char* payload) {
  FTR_EXPECTS_MSG(ftr_checksum64(payload, h.len) == h.checksum,
                  "wire frame payload checksum mismatch");
}

}  // namespace

std::vector<unsigned char> pack_frame(FrameType type,
                                      const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> frame(kHeaderBytes + payload.size());
  store_u32(frame.data(), kFrameMagic);
  store_u32(frame.data() + 4, static_cast<std::uint32_t>(type));
  store_u64(frame.data() + 8, payload.size());
  store_u64(frame.data() + 16, ftr_checksum64(payload.data(), payload.size()));
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

bool pop_frame(std::vector<unsigned char>& buf, WireFrame& out) {
  if (buf.size() < kHeaderBytes) return false;
  const Header h = parse_header(buf.data());
  if (buf.size() < kHeaderBytes + h.len) return false;
  check_payload(h, buf.data() + kHeaderBytes);
  out.type = static_cast<FrameType>(h.type);
  out.payload.assign(buf.begin() + kHeaderBytes,
                     buf.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + h.len));
  buf.erase(buf.begin(),
            buf.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + h.len));
  return true;
}

IoStatus read_frame(int fd, WireFrame& out) {
  unsigned char header[kHeaderBytes];
  IoStatus s = read_exact(fd, header, sizeof header);
  if (s != IoStatus::kOk) return s;
  const Header h = parse_header(header);
  out.payload.resize(h.len);
  if (h.len > 0) {
    s = read_exact(fd, out.payload.data(), h.len);
    if (s != IoStatus::kOk) return s;
  }
  check_payload(h, out.payload.data());
  out.type = static_cast<FrameType>(h.type);
  return IoStatus::kOk;
}

std::vector<unsigned char> encode_unit(const UnitSpec& unit) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(unit.kind));
  w.u32(unit.f);
  w.u64(unit.unit_id);
  w.u64(unit.begin);
  w.u64(unit.end);
  w.u64(unit.seed);
  w.u64(unit.delivery_pairs);
  w.u32(unit.exec.threads);
  w.u64(unit.exec.batch_size);
  w.node_lists(unit.sets);
  return w.take();
}

UnitSpec decode_unit(const std::vector<unsigned char>& payload) {
  ByteReader r(payload.data(), payload.size());
  UnitSpec u;
  u.kind = r.unit_kind();
  u.f = r.u32();
  u.unit_id = r.u64();
  u.begin = r.u64();
  u.end = r.u64();
  // An inverted window would wrap end - begin into a ~2^64-item unit.
  FTR_EXPECTS_MSG(u.begin <= u.end, "unit window [" << u.begin << ", " << u.end
                                                    << ") is inverted");
  u.seed = r.u64();
  u.delivery_pairs = r.u64();
  u.exec.threads = r.u32();
  u.exec.batch_size = static_cast<std::size_t>(r.u64());
  u.sets = r.node_lists();
  r.expect_end();
  return u;
}

std::vector<unsigned char> encode_sweep_result(std::uint64_t unit_id,
                                               const SweepPartial& p) {
  ByteWriter w;
  w.u64(unit_id);
  w.u64(p.sets);
  w.u64(p.disconnected);
  w.u64(p.diameter_histogram.size());
  for (std::uint64_t b : p.diameter_histogram) w.u64(b);
  w.u8(p.have_worst ? 1 : 0);
  w.u32(p.worst_diameter);
  w.u64(p.worst_index);
  w.nodes(p.worst_faults);
  w.u64(p.pairs_sampled);
  w.u64(p.delivered);
  w.u64(p.route_hops_total);
  w.u32(p.max_route_hops);
  w.u64(p.max_edge_hops);
  return w.take();
}

std::pair<std::uint64_t, SweepPartial> decode_sweep_result(
    const std::vector<unsigned char>& payload) {
  ByteReader r(payload.data(), payload.size());
  const std::uint64_t unit_id = r.u64();
  SweepPartial p;
  p.sets = r.u64();
  p.disconnected = r.u64();
  const std::uint64_t hist = r.u64();
  FTR_EXPECTS_MSG(hist <= payload.size() / 8,
                  "wire payload truncated: histogram exceeds frame");
  p.diameter_histogram.resize(hist);
  for (std::uint64_t i = 0; i < hist; ++i) p.diameter_histogram[i] = r.u64();
  p.have_worst = r.u8() != 0;
  p.worst_diameter = r.u32();
  p.worst_index = r.u64();
  p.worst_faults = r.nodes();
  p.pairs_sampled = r.u64();
  p.delivered = r.u64();
  p.route_hops_total = r.u64();
  p.max_route_hops = r.u32();
  p.max_edge_hops = r.u64();
  r.expect_end();
  return {unit_id, std::move(p)};
}

std::vector<unsigned char> encode_error(std::uint64_t unit_id,
                                        const std::string& message) {
  ByteWriter w;
  w.u64(unit_id);
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes(message.data(), message.size());
  return w.take();
}

std::pair<std::uint64_t, std::string> decode_error(
    const std::vector<unsigned char>& payload) {
  ByteReader r(payload.data(), payload.size());
  const std::uint64_t unit_id = r.u64();
  std::string msg = r.str();
  r.expect_end();
  return {unit_id, std::move(msg)};
}

}  // namespace ftr
