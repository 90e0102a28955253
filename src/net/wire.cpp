#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/kernels.hpp"

namespace resmon::net::wire {

namespace {

// -- little-endian words ----------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "net::wire copies integers and doubles to and from the "
              "little-endian wire format with memcpy, and crc32() reads "
              "8-byte little-endian words; a big-endian host needs byte "
              "swaps in store(), load() and crc32()");

template <typename T>
void store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::uint32_t get_u32(const std::uint8_t* p) { return load<std::uint32_t>(p); }
std::uint64_t get_u64(const std::uint8_t* p) { return load<std::uint64_t>(p); }

/// Doubles travel as their IEEE-754 bit patterns, which are their bytes in
/// memory on a little-endian host: a block copy is the exact identity.
void load_f64s(const std::uint8_t* p, transport::MeasurementValues& out,
               std::size_t count) {
  out.resize_for_overwrite(count);
  if (count > 0) std::memcpy(out.data(), p, 8 * count);
}

// -- CRC-32, sliced by 8 ----------------------------------------------------

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table of the reflected polynomial 0xEDB88320;
/// tables[k][i] is the register after byte i is followed by k zero bytes,
/// so eight bytes fold into the register with eight independent lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// The CRC register after the n bytes at p, from register c.
std::uint32_t crc32_sliced(std::uint32_t c, const std::uint8_t* p,
                           std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load<std::uint64_t>(p) ^ c;
    c = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
        t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
        t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

// -- CRC-32 by carry-less multiply ------------------------------------------

#if defined(__x86_64__)

/// Bytes one step of the four-lane fold consumes, and the shortest input
/// the fold takes.
constexpr std::size_t kFoldBlock = 64;

/// The folding constants of the reflected polynomial 0xEDB88320 (bit-
/// reflected x^k mod P(x), shifted left one), as in Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009):
/// k1, k2 fold a lane 512 bits ahead, k3, k4 fold 128 bits ahead, k5 folds
/// 64 bits to 32; p is P(x) and mu floor(x^64 / P(x)) for the Barrett step.
constexpr std::uint64_t kK1 = 0x154442BD4, kK2 = 0x1C6E41596;
constexpr std::uint64_t kK3 = 0x1751997D0, kK4 = 0x0CCAA009E;
constexpr std::uint64_t kK5 = 0x163CD6124;
constexpr std::uint64_t kP = 0x1DB710641, kMu = 0x1F7011641;

/// lane * x^(distance of k) + next: the low half of `lane` times the low
/// half of `k`, the high half times the high half, folded onto `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load128(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The CRC register after the n bytes at p, from register c, for n >= 64
/// and a multiple of 16: four 128-bit lanes fold 64 bytes per step, the
/// lanes and any remaining 16-byte blocks fold into one, which reduces to
/// 64 and then 32 bits by k4 and k5, and Barrett reduction yields the
/// register. The sliced loop's value over the same bytes.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_folded(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += kFoldBlock;
  n -= kFoldBlock;
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; n >= kFoldBlock; p += kFoldBlock, n -= kFoldBlock) {
    x0 = fold(x0, k12, load128(p));
    x1 = fold(x1, k12, load128(p + 16));
    x2 = fold(x2, k12, load128(p + 32));
    x3 = fold(x3, k12, load128(p + 48));
  }
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k34, x1);
  x0 = fold(x0, k34, x2);
  x0 = fold(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k34, load128(p));

  // 128 -> 64 bits (appending 32 zero bits): low half times k4.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(k34, x0, 0x01));
  // 64 -> 32 bits: low 32 bits times k5.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction: the register is bits 32..63.
  const __m128i pmu = _mm_set_epi64x(kMu, kP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pmu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(t, x0), 1));
}

/// Whether crc32 folds by carry-less multiply: the CPU has PCLMULQDQ and
/// the kernels run their SIMD instance (kern::set_path(kScalar) selects
/// the sliced tables everywhere).
bool fold_enabled() {
  static const bool cpu = __builtin_cpu_supports("pclmul") != 0 &&
                          __builtin_cpu_supports("sse4.1") != 0;
  return cpu && kern::active_path() == kern::Path::kSimd;
}

#endif  // __x86_64__

// -- frame assembly ---------------------------------------------------------

/// One frame written in place into a buffer of its exact size: the header
/// first, then the payload field by field, then finish() stamps the CRC of
/// the payload bytes where they lie.
class FrameWriter {
 public:
  FrameWriter(FrameType type, std::size_t payload_size)
      : out_(frame_size(payload_size)), at_(out_.data() + kHeaderSize) {
    std::uint8_t* h = out_.data();
    store(h, kMagic);
    h[4] = kProtocolVersion;
    h[5] = static_cast<std::uint8_t>(type);
    // h[6..7]: reserved, already zero.
    store(h + 8, static_cast<std::uint32_t>(payload_size));
  }

  void u8(std::uint8_t v) { *at_++ = v; }
  void u32(std::uint32_t v) {
    store(at_, v);
    at_ += 4;
  }
  void u64(std::uint64_t v) {
    store(at_, v);
    at_ += 8;
  }
  void f64s(std::span<const double> values) {
    if (values.empty()) return;
    std::memcpy(at_, values.data(), 8 * values.size());
    at_ += 8 * values.size();
  }

  std::vector<std::uint8_t> finish() {
    const std::span<const std::uint8_t> payload(out_.data() + kHeaderSize,
                                                out_.size() - kHeaderSize);
    store(out_.data() + 12, crc32(payload));
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint8_t* at_;
};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#if defined(__x86_64__)
  if (n >= kFoldBlock && fold_enabled()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_folded(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_sliced(c, p, n) ^ 0xFFFFFFFFu;
}

const char* hello_reject_name(std::uint8_t reason) {
  switch (static_cast<HelloReject>(reason)) {
    case HelloReject::kNone: return "accepted";
    case HelloReject::kNodeOutOfRange: return "node id out of range";
    case HelloReject::kDimensionMismatch: return "dimension mismatch";
    case HelloReject::kDuplicateNode: return "duplicate hello on one stream";
    case HelloReject::kShardOutOfRange: return "shard id out of range";
    case HelloReject::kBadNodeRange: return "invalid shard node range";
    case HelloReject::kVersionMismatch: return "wire protocol version mismatch";
    case HelloReject::kShardsNotEnabled:
      return "shard hello to a single-tier controller";
  }
  return "unknown reason";
}

std::string describe_hello_reject(std::uint8_t reason,
                                  std::uint8_t speaker_version) {
  std::string out = "reason " + std::to_string(static_cast<int>(reason)) +
                    ": " + hello_reject_name(reason);
  if (static_cast<HelloReject>(reason) == HelloReject::kVersionMismatch) {
    out += " (we speak wire protocol v" +
           std::to_string(static_cast<int>(kProtocolVersion)) +
           ", peer speaks ";
    // Appended piecewise: GCC 12 reports a false -Wrestrict on the
    // inlined `"v" + std::string` of a Release build.
    if (speaker_version == 0) {
      out += "an unreported version";
    } else {
      out += 'v';
      out += std::to_string(static_cast<int>(speaker_version));
    }
    out += ")";
  }
  return out;
}

const char* wire_error_name(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad magic";
    case WireError::kUnsupportedVersion: return "unsupported version";
    case WireError::kUnknownFrameType: return "unknown frame type";
    case WireError::kOversizedPayload: return "oversized payload";
    case WireError::kCrcMismatch: return "crc mismatch";
    case WireError::kMalformedPayload: return "malformed payload";
    case WireError::kTruncated: return "truncated frame";
  }
  return "invalid error code";
}

std::vector<std::uint8_t> encode(const transport::MeasurementMessage& m) {
  FrameWriter w(FrameType::kMeasurement,
                measurement_payload_size(m.values.size()));
  w.u32(static_cast<std::uint32_t>(m.node));
  w.u64(static_cast<std::uint64_t>(m.step));
  w.u32(static_cast<std::uint32_t>(m.values.size()));
  w.f64s(m.values);
  return w.finish();
}

std::vector<std::uint8_t> encode(const HelloFrame& f) {
  FrameWriter w(FrameType::kHello, kHelloPayloadSize);
  w.u32(f.node);
  w.u32(f.num_resources);
  return w.finish();
}

std::vector<std::uint8_t> encode(const HelloAckFrame& f) {
  FrameWriter w(FrameType::kHelloAck, kHelloAckPayloadSize);
  w.u32(f.node);
  w.u8(f.accepted ? 1 : 0);
  w.u8(f.reason);
  w.u8(f.speaker_version);
  w.u8(0);  // reserved
  return w.finish();
}

std::vector<std::uint8_t> encode(const HeartbeatFrame& f) {
  FrameWriter w(FrameType::kHeartbeat, kHeartbeatPayloadSize);
  w.u32(f.node);
  w.u64(f.step);
  return w.finish();
}

std::vector<std::uint8_t> encode(const ShardHelloFrame& f) {
  FrameWriter w(FrameType::kShardHello, kShardHelloPayloadSize);
  w.u32(f.shard);
  w.u32(f.first_node);
  w.u32(f.num_nodes);
  w.u32(f.num_resources);
  w.u32(f.protocol);
  return w.finish();
}

std::vector<std::uint8_t> encode(const SlotSummaryFrame& f) {
  // Sized from the entries as they are, so a measurement whose dimension
  // disagrees with num_resources encodes to the same (decoder-rejected)
  // bytes as before rather than overrunning the buffer.
  std::size_t payload_size = kSlotSummaryHeaderSize;
  for (const transport::MeasurementMessage& m : f.measurements) {
    payload_size += 4 + 8 * m.values.size();
  }
  FrameWriter w(FrameType::kSlotSummary, payload_size);
  w.u32(f.shard);
  w.u64(f.step);
  w.u32(f.degraded);
  w.u32(f.num_resources);
  w.u32(static_cast<std::uint32_t>(f.measurements.size()));
  for (const transport::MeasurementMessage& m : f.measurements) {
    w.u32(static_cast<std::uint32_t>(m.node));
    w.f64s(m.values);
  }
  return w.finish();
}

std::vector<std::uint8_t> encode(const ShardStatusFrame& f) {
  FrameWriter w(FrameType::kShardStatus, kShardStatusPayloadSize);
  w.u32(f.shard);
  w.u32(f.live);
  w.u32(f.stale);
  w.u32(f.dead);
  return w.finish();
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(max_payload) {}

bool FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // A partial frame left by an earlier feed takes only the bytes it still
  // misses: the header's first, then, once decode_frames has validated the
  // header, its payload's.
  while (error_ == WireError::kNone && !buffer_.empty() && !bytes.empty()) {
    const std::size_t need =
        buffer_.size() < kHeaderSize
            ? kHeaderSize
            : kHeaderSize + std::size_t{get_u32(buffer_.data() + 8)};
    const std::size_t take = std::min(need - buffer_.size(), bytes.size());
    buffer_.insert(buffer_.end(), bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(take));
    bytes = bytes.subspan(take);
    if (decode_frames(buffer_) == buffer_.size()) buffer_.clear();
  }
  if (error_ != WireError::kNone) return false;
  if (buffer_.empty()) {
    // Every other frame decodes straight from the caller's bytes; only an
    // incomplete tail is copied, so the buffer never outgrows one frame.
    const std::size_t used = decode_frames(bytes);
    if (error_ == WireError::kNone) {
      buffer_.assign(bytes.begin() + static_cast<std::ptrdiff_t>(used),
                     bytes.end());
    }
  }
  return error_ == WireError::kNone;
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_head_ == ready_.size()) return std::nullopt;
  Frame f = std::move(ready_[ready_head_++]);
  if (ready_head_ == ready_.size()) {
    ready_.clear();  // keeps its capacity for the next feed
    ready_head_ = 0;
  }
  return f;
}

bool FrameDecoder::finish() {
  if (error_ != WireError::kNone) return false;
  if (!buffer_.empty()) {
    error_ = WireError::kTruncated;
    return false;
  }
  return true;
}

std::size_t FrameDecoder::decode_frames(std::span<const std::uint8_t> bytes) {
  std::size_t used = 0;
  while (const std::size_t n =
             decode_one(bytes.data() + used, bytes.size() - used)) {
    used += n;
  }
  return used;
}

std::size_t FrameDecoder::decode_one(const std::uint8_t* h,
                                     std::size_t available) {
  if (available < kHeaderSize) return 0;

  // Validate the header before waiting for (or buffering) any payload, so
  // a hostile length field cannot drive allocation.
  if (get_u32(h) != kMagic) {
    error_ = WireError::kBadMagic;
    return 0;
  }
  if (h[4] != kProtocolVersion) {
    error_ = WireError::kUnsupportedVersion;
    return 0;
  }
  const std::uint8_t type = h[5];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kShardStatus)) {
    error_ = WireError::kUnknownFrameType;
    return 0;
  }
  const std::size_t payload_len = get_u32(h + 8);
  if (payload_len > max_payload_) {
    error_ = WireError::kOversizedPayload;
    return 0;
  }
  const std::size_t total = kHeaderSize + payload_len;
  if (available < total) return 0;  // wait for more bytes

  const std::uint8_t* p = h + kHeaderSize;
  if (crc32({p, payload_len}) != get_u32(h + 12)) {
    error_ = WireError::kCrcMismatch;
    return 0;
  }

  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello: {
      if (payload_len != kHelloPayloadSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      ready_.push_back(HelloFrame{.node = get_u32(p),
                                  .num_resources = get_u32(p + 4)});
      break;
    }
    case FrameType::kHelloAck: {
      if (payload_len != kHelloAckPayloadSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      ready_.push_back(HelloAckFrame{.node = get_u32(p),
                                     .accepted = p[4] != 0,
                                     .reason = p[5],
                                     .speaker_version = p[6]});
      break;
    }
    case FrameType::kMeasurement: {
      if (payload_len < 16) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      const std::size_t count = get_u32(p + 12);
      if (payload_len != measurement_payload_size(count)) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      transport::MeasurementMessage m;
      m.node = get_u32(p);
      m.step = static_cast<std::size_t>(get_u64(p + 4));
      load_f64s(p + 16, m.values, count);
      ready_.push_back(std::move(m));
      break;
    }
    case FrameType::kHeartbeat: {
      if (payload_len != kHeartbeatPayloadSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      ready_.push_back(
          HeartbeatFrame{.node = get_u32(p), .step = get_u64(p + 4)});
      break;
    }
    case FrameType::kShardHello: {
      if (payload_len != kShardHelloPayloadSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      ready_.push_back(ShardHelloFrame{.shard = get_u32(p),
                                       .first_node = get_u32(p + 4),
                                       .num_nodes = get_u32(p + 8),
                                       .num_resources = get_u32(p + 12),
                                       .protocol = get_u32(p + 16)});
      break;
    }
    case FrameType::kSlotSummary: {
      if (payload_len < kSlotSummaryHeaderSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      const std::size_t dim = get_u32(p + 16);
      const std::size_t count = get_u32(p + 20);
      // Bound both fields by what could possibly fit in the (already
      // length-capped) payload before multiplying, so a hostile header
      // cannot overflow the size arithmetic. An empty summary (a slot in
      // which every shard agent stayed silent) carries dim but no entries,
      // so dim is only bounded when entries exist to hold it.
      if ((count > 0 && dim > payload_len / 8) || count > payload_len / 4 ||
          payload_len != slot_summary_payload_size(count, dim)) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      SlotSummaryFrame s;
      s.shard = get_u32(p);
      s.step = get_u64(p + 4);
      s.degraded = get_u32(p + 12);
      s.num_resources = static_cast<std::uint32_t>(dim);
      s.measurements.resize(count);
      const std::uint8_t* entry = p + kSlotSummaryHeaderSize;
      for (transport::MeasurementMessage& m : s.measurements) {
        m.node = get_u32(entry);
        m.step = static_cast<std::size_t>(s.step);
        load_f64s(entry + 4, m.values, dim);
        entry += 4 + 8 * dim;
      }
      ready_.push_back(std::move(s));
      break;
    }
    case FrameType::kShardStatus: {
      if (payload_len != kShardStatusPayloadSize) {
        error_ = WireError::kMalformedPayload;
        return 0;
      }
      ready_.push_back(ShardStatusFrame{.shard = get_u32(p),
                                        .live = get_u32(p + 4),
                                        .stale = get_u32(p + 8),
                                        .dead = get_u32(p + 12)});
      break;
    }
  }

  ++frames_decoded_;
  bytes_consumed_ += total;
  return total;
}

}  // namespace resmon::net::wire
