// Wire protocol tests: encode/decode identity, incremental decoding, and
// the robustness sweep from the protocol's threat model — truncation at
// every byte boundary, corrupted CRCs, wrong magic, future versions, and
// headers announcing absurd payload sizes (which must not allocate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/kernels.hpp"
#include "net/wire.hpp"
#include "reference_crc32.hpp"

namespace resmon::net::wire {
namespace {

transport::MeasurementMessage sample_message(std::size_t node,
                                             std::size_t step,
                                             std::vector<double> values) {
  transport::MeasurementMessage m;
  m.node = node;
  m.step = step;
  m.values = std::move(values);
  return m;
}

/// Decode exactly one frame from a complete buffer, expecting success.
Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder dec;
  EXPECT_TRUE(dec.feed(bytes));
  std::optional<Frame> frame = dec.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_TRUE(dec.finish());
  return std::move(*frame);
}

TEST(Wire, MeasurementRoundTripIsExactIdentity) {
  const transport::MeasurementMessage m =
      sample_message(7, 123456789012345ull, {0.25, -1e308, 3.5e-320});
  const Frame frame = decode_one(encode(m));
  const auto& got = std::get<transport::MeasurementMessage>(frame);
  EXPECT_EQ(got.node, m.node);
  EXPECT_EQ(got.step, m.step);
  ASSERT_EQ(got.values.size(), m.values.size());
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
              std::bit_cast<std::uint64_t>(m.values[i]));
  }
}

TEST(Wire, RoundTripPreservesNonFiniteAndSignedZeroBitPatterns) {
  const transport::MeasurementMessage m = sample_message(
      0, 0,
      {std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::infinity(),
       -std::numeric_limits<double>::infinity(), -0.0,
       std::numeric_limits<double>::denorm_min()});
  const Frame frame = decode_one(encode(m));
  const auto& got = std::get<transport::MeasurementMessage>(frame);
  ASSERT_EQ(got.values.size(), m.values.size());
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
              std::bit_cast<std::uint64_t>(m.values[i]))
        << "value " << i;
  }
}

TEST(Wire, RandomizedMessagesRoundTripAtEveryDimension) {
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  for (std::size_t d = 0; d <= 32; ++d) {
    transport::MeasurementMessage m;
    m.node = static_cast<std::size_t>(rng() % 10000);
    m.step = static_cast<std::size_t>(rng());
    for (std::size_t i = 0; i < d; ++i) m.values.push_back(value(rng));

    const std::vector<std::uint8_t> bytes = encode(m);
    EXPECT_EQ(bytes.size(), m.wire_size()) << "d=" << d;
    const Frame frame = decode_one(bytes);
    const auto& got = std::get<transport::MeasurementMessage>(frame);
    EXPECT_EQ(got.node, m.node);
    EXPECT_EQ(got.step, m.step);
    EXPECT_EQ(got.values, m.values) << "d=" << d;
  }
}

TEST(Wire, ControlFramesRoundTrip) {
  const auto hello = std::get<HelloFrame>(
      decode_one(encode(HelloFrame{.node = 42, .num_resources = 3})));
  EXPECT_EQ(hello.node, 42u);
  EXPECT_EQ(hello.num_resources, 3u);

  const auto ack = std::get<HelloAckFrame>(decode_one(
      encode(HelloAckFrame{.node = 42, .accepted = false, .reason = 3})));
  EXPECT_EQ(ack.node, 42u);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, 3u);

  const auto hb = std::get<HeartbeatFrame>(decode_one(
      encode(HeartbeatFrame{.node = 6, .step = (1ull << 40) + 9})));
  EXPECT_EQ(hb.node, 6u);
  EXPECT_EQ(hb.step, (1ull << 40) + 9);
}

TEST(Wire, DecoderHandlesByteAtATimeMultiFrameStreams) {
  std::vector<std::uint8_t> stream;
  const transport::MeasurementMessage m0 = sample_message(1, 10, {0.5});
  const transport::MeasurementMessage m1 = sample_message(2, 11, {1.5, 2.5});
  for (const auto& bytes :
       {encode(HelloFrame{.node = 1, .num_resources = 1}), encode(m0),
        encode(HeartbeatFrame{.node = 1, .step = 12}), encode(m1)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(dec.feed({&byte, 1}));
    while (std::optional<Frame> f = dec.next()) frames.push_back(*f);
  }
  EXPECT_TRUE(dec.finish());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<HelloFrame>(frames[0]));
  EXPECT_EQ(std::get<transport::MeasurementMessage>(frames[1]).step, 10u);
  EXPECT_EQ(std::get<HeartbeatFrame>(frames[2]).step, 12u);
  EXPECT_EQ(std::get<transport::MeasurementMessage>(frames[3]).values,
            m1.values);
  EXPECT_EQ(dec.frames_decoded(), 4u);
  EXPECT_EQ(dec.bytes_consumed(), stream.size());
}

TEST(Wire, TruncationAtEveryByteBoundaryIsDetected) {
  const std::vector<std::uint8_t> bytes =
      encode(sample_message(3, 17, {1.0, 2.0, 3.0}));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    ASSERT_TRUE(dec.feed({bytes.data(), cut})) << "cut=" << cut;
    EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
    if (cut == 0) {
      EXPECT_TRUE(dec.finish());  // clean end between frames
    } else {
      EXPECT_FALSE(dec.finish()) << "cut=" << cut;
      EXPECT_EQ(dec.error(), WireError::kTruncated) << "cut=" << cut;
    }
  }
}

TEST(Wire, FlippedCrcFieldRejectsTheFrame) {
  std::vector<std::uint8_t> bytes = encode(sample_message(1, 2, {4.0}));
  bytes[12] ^= 0x01;  // CRC lives at header bytes [12, 16)
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kCrcMismatch);
  EXPECT_STREQ(wire_error_name(dec.error()), "crc mismatch");
}

TEST(Wire, EveryCorruptedPayloadByteIsCaughtByTheCrc) {
  const std::vector<std::uint8_t> clean = encode(sample_message(1, 2, {4.0}));
  for (std::size_t i = kHeaderSize; i < clean.size(); ++i) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[i] ^= 0x40;
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes)) << "byte " << i;
    EXPECT_EQ(dec.error(), WireError::kCrcMismatch) << "byte " << i;
  }
}

TEST(Wire, WrongMagicIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kBadMagic);
}

TEST(Wire, FutureProtocolVersionIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[4] = kProtocolVersion + 1;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnsupportedVersion);
}

TEST(Wire, UnknownFrameTypeIsRejected) {
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes[5] = 0x7F;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnknownFrameType);
}

TEST(Wire, PayloadBombIsRejectedFromTheHeaderAlone) {
  // A hostile header announcing a 4 GiB payload must be rejected as soon as
  // the 16 header bytes are in — before any payload is buffered, so a
  // remote peer cannot drive controller memory with a single small write.
  std::vector<std::uint8_t> bytes = encode(HeartbeatFrame{.node = 0});
  bytes.resize(kHeaderSize);
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xFF;  // payload_len field
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kOversizedPayload);
  EXPECT_LE(dec.buffered_bytes(), kHeaderSize);
}

TEST(Wire, PayloadJustOverTheDecoderLimitIsRejected) {
  const transport::MeasurementMessage m = sample_message(0, 0, {1.0, 2.0});
  const std::vector<std::uint8_t> bytes = encode(m);
  FrameDecoder tight(measurement_payload_size(m.values.size()) - 1);
  EXPECT_FALSE(tight.feed(bytes));
  EXPECT_EQ(tight.error(), WireError::kOversizedPayload);

  FrameDecoder exact(measurement_payload_size(m.values.size()));
  EXPECT_TRUE(exact.feed(bytes));
  EXPECT_TRUE(exact.next().has_value());
}

TEST(Wire, InconsistentMeasurementCountIsMalformed) {
  // Patch the in-payload count field and fix up the CRC so only the
  // payload-length consistency check can catch it.
  std::vector<std::uint8_t> bytes = encode(sample_message(1, 2, {4.0, 5.0}));
  const std::size_t count_offset = kHeaderSize + 12;
  bytes[count_offset] += 1;  // claims 3 doubles; payload only holds 2
  const std::uint32_t crc =
      crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
  bytes[12] = static_cast<std::uint8_t>(crc);
  bytes[13] = static_cast<std::uint8_t>(crc >> 8);
  bytes[14] = static_cast<std::uint8_t>(crc >> 16);
  bytes[15] = static_cast<std::uint8_t>(crc >> 24);

  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, PoisonedDecoderStaysPoisoned) {
  std::vector<std::uint8_t> bad = encode(HeartbeatFrame{.node = 0});
  bad[0] ^= 0xFF;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bad));

  const std::vector<std::uint8_t> good = encode(HeartbeatFrame{.node = 1});
  EXPECT_FALSE(dec.feed(good));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.finish());
  EXPECT_EQ(dec.error(), WireError::kBadMagic);
}

// -- shard frames (two-tier topology) ---------------------------------------

TEST(Wire, ShardHelloRoundTrip) {
  const auto sh = std::get<ShardHelloFrame>(decode_one(
      encode(ShardHelloFrame{.shard = 3,
                             .first_node = 96,
                             .num_nodes = 32,
                             .num_resources = 2,
                             .protocol = kProtocolVersion})));
  EXPECT_EQ(sh.shard, 3u);
  EXPECT_EQ(sh.first_node, 96u);
  EXPECT_EQ(sh.num_nodes, 32u);
  EXPECT_EQ(sh.num_resources, 2u);
  EXPECT_EQ(sh.protocol, kProtocolVersion);
}

TEST(Wire, HelloAckCarriesSpeakerVersion) {
  const auto ack = std::get<HelloAckFrame>(decode_one(encode(
      HelloAckFrame{.node = 1, .accepted = false, .reason = 6,
                    .speaker_version = 9})));
  EXPECT_EQ(ack.reason, 6u);
  EXPECT_EQ(ack.speaker_version, 9u);
  // The default-constructed ack reports this build's protocol version.
  const auto dflt = std::get<HelloAckFrame>(
      decode_one(encode(HelloAckFrame{.node = 0, .accepted = true})));
  EXPECT_EQ(dflt.speaker_version, kProtocolVersion);
}

TEST(Wire, SlotSummaryRoundTripIsExactIdentity) {
  SlotSummaryFrame s;
  s.shard = 1;
  s.step = (1ull << 41) + 17;
  s.degraded = 2;
  s.num_resources = 3;
  s.measurements.push_back(sample_message(
      4, static_cast<std::size_t>(s.step),
      {0.25, std::numeric_limits<double>::quiet_NaN(), -0.0}));
  s.measurements.push_back(sample_message(
      5, static_cast<std::size_t>(s.step), {-1e308, 3.5e-320, 2.5}));

  const std::vector<std::uint8_t> bytes = encode(s);
  EXPECT_EQ(bytes.size(),
            frame_size(slot_summary_payload_size(2, s.num_resources)));
  const auto got = std::get<SlotSummaryFrame>(decode_one(bytes));
  EXPECT_EQ(got.shard, s.shard);
  EXPECT_EQ(got.step, s.step);
  EXPECT_EQ(got.degraded, s.degraded);
  EXPECT_EQ(got.num_resources, s.num_resources);
  ASSERT_EQ(got.measurements.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got.measurements[i].node, s.measurements[i].node);
    // Each decoded entry inherits the summary's step.
    EXPECT_EQ(got.measurements[i].step, static_cast<std::size_t>(s.step));
    ASSERT_EQ(got.measurements[i].values.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.measurements[i].values[r]),
                std::bit_cast<std::uint64_t>(s.measurements[i].values[r]))
          << "entry " << i << " value " << r;
    }
  }
}

TEST(Wire, EmptySlotSummaryRoundTrips) {
  // Every shard agent stayed silent this slot: the summary still travels
  // (it IS the shard's progress signal) with zero entries.
  SlotSummaryFrame s;
  s.shard = 0;
  s.step = 7;
  s.num_resources = 4;
  const auto got = std::get<SlotSummaryFrame>(decode_one(encode(s)));
  EXPECT_EQ(got.step, 7u);
  EXPECT_EQ(got.degraded, 0u);
  EXPECT_TRUE(got.measurements.empty());
}

TEST(Wire, ShardStatusRoundTrip) {
  const auto st = std::get<ShardStatusFrame>(decode_one(encode(
      ShardStatusFrame{.shard = 2, .live = 30, .stale = 1, .dead = 1})));
  EXPECT_EQ(st.shard, 2u);
  EXPECT_EQ(st.live, 30u);
  EXPECT_EQ(st.stale, 1u);
  EXPECT_EQ(st.dead, 1u);
}

TEST(Wire, ShardFrameTruncationAtEveryByteBoundaryIsDetected) {
  SlotSummaryFrame s;
  s.shard = 1;
  s.step = 9;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 9, {1.0, 2.0}));
  for (const auto& bytes :
       {encode(ShardHelloFrame{.shard = 0, .num_nodes = 3,
                               .num_resources = 2}),
        encode(s), encode(ShardStatusFrame{.shard = 0, .live = 3})}) {
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
      FrameDecoder dec;
      ASSERT_TRUE(dec.feed({bytes.data(), cut})) << "cut=" << cut;
      EXPECT_FALSE(dec.next().has_value()) << "cut=" << cut;
      EXPECT_FALSE(dec.finish()) << "cut=" << cut;
      EXPECT_EQ(dec.error(), WireError::kTruncated) << "cut=" << cut;
    }
  }
}

TEST(Wire, EveryCorruptedShardFrameByteIsCaughtByTheCrc) {
  SlotSummaryFrame s;
  s.shard = 0;
  s.step = 3;
  s.num_resources = 1;
  s.measurements.push_back(sample_message(1, 3, {4.0}));
  const std::vector<std::uint8_t> clean = encode(s);
  for (std::size_t i = kHeaderSize; i < clean.size(); ++i) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[i] ^= 0x40;
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes)) << "byte " << i;
    EXPECT_EQ(dec.error(), WireError::kCrcMismatch) << "byte " << i;
  }
}

/// Patch a 32-bit little-endian field inside the payload and fix up the
/// header CRC, so only the structural validation can reject the frame.
std::vector<std::uint8_t> with_patched_field(std::vector<std::uint8_t> bytes,
                                             std::size_t payload_offset,
                                             std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[kHeaderSize + payload_offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  const std::uint32_t crc =
      crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
  for (int i = 0; i < 4; ++i) {
    bytes[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

TEST(Wire, HostileSlotSummaryCountIsMalformed) {
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  // count claims 2^31 entries; the payload holds one. The size check must
  // reject this without multiplying into an overflow.
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 20, 1u << 31);
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, HostileSlotSummaryDimensionIsMalformed) {
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 16, 0xFFFFFFFFu);
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, SlotSummaryCountDimensionMismatchIsMalformed) {
  // Internally consistent-looking fields whose product disagrees with the
  // actual payload length by one entry.
  SlotSummaryFrame s;
  s.num_resources = 2;
  s.measurements.push_back(sample_message(0, 0, {1.0, 2.0}));
  s.measurements.push_back(sample_message(1, 0, {3.0, 4.0}));
  const std::vector<std::uint8_t> bytes =
      with_patched_field(encode(s), 20, 3);  // claims 3 entries, holds 2
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
}

TEST(Wire, WrongSizeShardControlPayloadsAreMalformed) {
  // Shrink each fixed-size shard frame by one payload byte (fixing length
  // field + CRC) — the per-type size check must reject it.
  for (const auto& clean :
       {encode(ShardHelloFrame{.shard = 1, .num_nodes = 2,
                               .num_resources = 1}),
        encode(ShardStatusFrame{.shard = 1, .live = 2})}) {
    std::vector<std::uint8_t> bytes = clean;
    bytes.pop_back();
    const std::uint32_t len =
        static_cast<std::uint32_t>(bytes.size() - kHeaderSize);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    }
    const std::uint32_t crc =
        crc32({bytes.data() + kHeaderSize, bytes.size() - kHeaderSize});
    for (int i = 0; i < 4; ++i) {
      bytes[12 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
    FrameDecoder dec;
    EXPECT_FALSE(dec.feed(bytes));
    EXPECT_EQ(dec.error(), WireError::kMalformedPayload);
  }
}

TEST(Wire, FrameTypePastShardStatusIsUnknown) {
  // Type 8 is the first unassigned id of protocol v1: a build from the
  // future must be rejected as kUnknownFrameType, not misparsed.
  std::vector<std::uint8_t> bytes = encode(ShardStatusFrame{.shard = 0});
  bytes[5] = 8;
  FrameDecoder dec;
  EXPECT_FALSE(dec.feed(bytes));
  EXPECT_EQ(dec.error(), WireError::kUnknownFrameType);
}

TEST(Wire, HelloRejectNamesAreStable) {
  EXPECT_STREQ(hello_reject_name(0), "accepted");
  EXPECT_STREQ(hello_reject_name(1), "node id out of range");
  EXPECT_STREQ(hello_reject_name(6), "wire protocol version mismatch");
  EXPECT_STREQ(hello_reject_name(7),
               "shard hello to a single-tier controller");
  EXPECT_STREQ(hello_reject_name(200), "unknown reason");
}

TEST(Wire, DescribeHelloRejectNamesBothVersionsOnMismatch) {
  const std::string described = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kVersionMismatch), 3);
  EXPECT_NE(described.find("version mismatch"), std::string::npos);
  // Appended piecewise: GCC 12 reports a false -Wrestrict on the inlined
  // `"v" + std::string` of a Release build.
  std::string ours = "v";
  ours += std::to_string(kProtocolVersion);
  EXPECT_NE(described.find(ours), std::string::npos);
  EXPECT_NE(described.find("v3"), std::string::npos);
  // An ack from a build predating the speaker_version byte reports 0.
  const std::string legacy = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kVersionMismatch), 0);
  EXPECT_NE(legacy.find("unreported"), std::string::npos);
  // Non-version rejections stay a plain named reason.
  const std::string plain = describe_hello_reject(
      static_cast<std::uint8_t>(HelloReject::kDimensionMismatch), 0);
  EXPECT_EQ(plain, "reason 2: dimension mismatch");
}

TEST(Wire, Crc32MatchesTheIeeeCheckValue) {
  // The canonical check string from the CRC-32/ISO-HDLC specification.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Wire, SlicedCrc32MatchesTheBytewiseOracleAtEveryLengthAndAlignment) {
  // Both CRC paths: the sliced tables (the scalar kernel path) and, where
  // the CPU has PCLMULQDQ, the carry-less fold (the SIMD path). The sliced
  // loop takes eight bytes per step and finishes bytewise, and the fold
  // takes 64-byte blocks, then 16-byte blocks, then leaves the tail to the
  // tables, so every length mod 64 and every start alignment takes a
  // different split; the long lengths include a whole 12,478-node shard
  // summary's payload at d = 4.
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> bytes(224644 + 8);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 1024; ++len) lengths.push_back(len);
  for (const std::size_t len : {63, 64, 65, 79, 80, 127, 128, 129, 4096,
                                65536, 224644}) {
    lengths.push_back(len);
  }
  const kern::Path saved = kern::active_path();
  std::vector<kern::Path> paths = {kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  for (const kern::Path path : paths) {
    kern::set_path(path);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (const std::size_t len : lengths) {
        const std::span<const std::uint8_t> view(bytes.data() + offset, len);
        ASSERT_EQ(crc32(view), oracle::reference_crc32(view))
            << "path " << static_cast<int>(path) << ", offset " << offset
            << ", length " << len;
      }
    }
  }
  kern::set_path(saved);
}

// -- golden bytes ------------------------------------------------------------
// One frame of each type, pinned to the bytes the bytewise encoder produced,
// so an encoder rewrite cannot drift on both sides of a round trip unseen.

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Encode `frame`, compare with the pinned hex, and decode the pinned bytes
/// back to the same frame.
void expect_golden(const Frame& frame, const std::string& golden) {
  const std::vector<std::uint8_t> bytes =
      std::visit([](const auto& f) { return encode(f); }, frame);
  EXPECT_EQ(hex(bytes), golden);
  const Frame back = decode_one(bytes);
  EXPECT_EQ(back.index(), frame.index());
  EXPECT_EQ(hex(std::visit([](const auto& f) { return encode(f); }, back)),
            golden);
}

TEST(Wire, GoldenBytesOfEveryFrameType) {
  expect_golden(HelloFrame{.node = 7, .num_resources = 4},
                "524d4f4e0101000008000000274185e00700000004000000");
  expect_golden(HelloAckFrame{.node = 7,
                              .accepted = false,
                              .reason = 6,
                              .speaker_version = 1},
                "524d4f4e0102000008000000839b71720700000000060100");
  expect_golden(sample_message(3, 0x0102030405ull, {0.5, -1.25, 1e-300}),
                "524d4f4e01030000280000003b2688b603000000050403020100000003000000"
                "000000000000e03f000000000000f4bf59f3f8c21f6ea501");
  expect_golden(HeartbeatFrame{.node = 9, .step = (1ull << 40) + 9},
                "524d4f4e010400000c000000e28df1f8090000000900000000010000");
  expect_golden(ShardHelloFrame{.shard = 2,
                                .first_node = 100,
                                .num_nodes = 50,
                                .num_resources = 2,
                                .protocol = 1},
                "524d4f4e010500001400000082e4e02a02000000640000003200000002000000"
                "01000000");
  expect_golden(
      SlotSummaryFrame{.shard = 1,
                       .step = 77,
                       .degraded = 3,
                       .num_resources = 2,
                       .measurements = {sample_message(100, 77, {0.25, 0.75}),
                                        sample_message(149, 77, {-0.0, 3.0})}},
      "524d4f4e0106000040000000a8d4d03a010000004d0000000000000003000000"
      "020000000200000064000000000000000000d03f000000000000e83f95000000"
      "00000000000000800000000000000840");
  expect_golden(
      ShardStatusFrame{.shard = 1, .live = 40, .stale = 7, .dead = 3},
      "524d4f4e010700001000000035d19e4401000000280000000700000003000000");
}

TEST(Wire, TenThousandFramesInOneFeedDecodeAsByteAtATime) {
  // One large feed decodes straight from the caller's bytes; a byte-at-a-
  // time feed and uneven chunks go through the decoder's own buffer. All
  // three must yield the same frames, which re-encode to the same stream.
  std::mt19937_64 rng(25);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<std::uint8_t> stream;
  const auto append = [&](const std::vector<std::uint8_t>& bytes) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  };
  constexpr std::size_t kFrames = 10000;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto u32 = [&] { return static_cast<std::uint32_t>(rng()); };
    switch (rng() % 7) {
      case 0:
        append(encode(HelloFrame{.node = u32(), .num_resources = u32()}));
        break;
      case 1:
        append(encode(HelloAckFrame{.node = u32(),
                                    .accepted = (rng() & 1) != 0,
                                    .reason = static_cast<std::uint8_t>(rng()),
                                    .speaker_version = 1}));
        break;
      case 2: {
        std::vector<double> values(rng() % 9);
        for (double& v : values) v = value(rng);
        append(encode(sample_message(u32(), rng(), std::move(values))));
        break;
      }
      case 3:
        append(encode(HeartbeatFrame{.node = u32(), .step = rng()}));
        break;
      case 4:
        append(encode(ShardHelloFrame{.shard = u32(),
                                      .first_node = u32(),
                                      .num_nodes = u32(),
                                      .num_resources = u32(),
                                      .protocol = u32()}));
        break;
      case 5: {
        SlotSummaryFrame s{.shard = u32(),
                           .step = rng(),
                           .degraded = u32(),
                           .num_resources = static_cast<std::uint32_t>(
                               rng() % 5)};
        s.measurements.resize(rng() % 6);
        for (transport::MeasurementMessage& m : s.measurements) {
          m.node = u32();
          m.step = s.step;
          m.values.resize(s.num_resources);
          for (double& v : m.values) v = value(rng);
        }
        append(encode(s));
        break;
      }
      default:
        append(encode(ShardStatusFrame{
            .shard = u32(), .live = u32(), .stale = u32(), .dead = u32()}));
        break;
    }
  }

  // Every decoded frame, re-encoded back to back.
  const auto decode_in_chunks = [&](auto next_chunk) {
    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    std::size_t frames = 0;
    for (std::size_t off = 0; off < stream.size();) {
      const std::size_t n = std::min(next_chunk(), stream.size() - off);
      EXPECT_TRUE(dec.feed({stream.data() + off, n}));
      off += n;
      while (std::optional<Frame> f = dec.next()) {
        const std::vector<std::uint8_t> bytes =
            std::visit([](const auto& x) { return encode(x); }, *f);
        out.insert(out.end(), bytes.begin(), bytes.end());
        ++frames;
      }
    }
    EXPECT_TRUE(dec.finish());
    EXPECT_EQ(frames, kFrames);
    EXPECT_EQ(dec.frames_decoded(), kFrames);
    EXPECT_EQ(dec.bytes_consumed(), stream.size());
    return out;
  };
  const std::vector<std::uint8_t> one_call =
      decode_in_chunks([&] { return stream.size(); });
  const std::vector<std::uint8_t> bytewise =
      decode_in_chunks([] { return std::size_t{1}; });
  std::mt19937_64 chunk_rng(3);
  const std::vector<std::uint8_t> uneven = decode_in_chunks(
      [&] { return static_cast<std::size_t>(1 + chunk_rng() % 700); });
  EXPECT_TRUE(one_call == stream);
  EXPECT_TRUE(bytewise == stream);
  EXPECT_TRUE(uneven == stream);
}

}  // namespace
}  // namespace resmon::net::wire
