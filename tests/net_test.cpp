// Unit tests for the simulated transport layer (src/net/): CRC-32, varints,
// wire frames, codecs (including a property-style round-trip over every
// ModelPool submodel shape), channel model, fault plans, and the transport's
// retry/backoff/deadline machinery.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arch/zoo.hpp"
#include "net/channel.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "prune/model_pool.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

using net::ChannelConfig;
using net::Codec;
using net::FaultSpec;
using net::FrameHeader;
using net::FrameKind;
using net::NetConfig;
using net::Transport;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The IEEE 802.3 check value every CRC-32 implementation must reproduce.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(crc32("", 0), 0x00000000u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(data);
  std::uint32_t state = kCrc32Init;
  for (std::size_t i = 0; i < n; ++i) state = crc32_update(state, data + i, 1);
  EXPECT_EQ(crc32_final(state), crc32(data, n));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> buf(64, 0xA5);
  const std::uint32_t clean = crc32(buf.data(), buf.size());
  buf[17] ^= 0x04;
  EXPECT_NE(crc32(buf.data(), buf.size()), clean);
}

// The bit-at-a-time definition: reflected polynomial 0xEDB88320, initial
// state and final xor 0xFFFFFFFF.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseDefinitionAtAnyOffsetAndSplit) {
  // The sliced update reads eight bytes at a time; every length, start
  // alignment and chunk boundary must give the definition's value.
  Rng rng(0xC4C32u);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = buf.data() + offset;
      const std::uint32_t want = crc32_bitwise(p, len);
      EXPECT_EQ(crc32(p, len), want) << "len " << len << " offset " << offset;
      const std::size_t split = rng.uniform_index(len + 1);
      const std::uint32_t state = crc32_update(kCrc32Init, p, split);
      EXPECT_EQ(crc32_final(crc32_update(state, p + split, len - split)), want)
          << "len " << len << " offset " << offset << " split " << split;
    }
  }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,   1,    127,        128,
                                  300, 1624, 0xFFFFFFFF, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    net::varint_encode(v, buf);
    std::size_t cursor = 0;
    EXPECT_EQ(net::varint_decode(buf.data(), buf.size(), &cursor), v);
    EXPECT_EQ(cursor, buf.size());
  }
}

TEST(Varint, SingleByteForSmallValues) {
  std::vector<std::uint8_t> buf;
  net::varint_encode(127, buf);
  EXPECT_EQ(buf.size(), 1u);
  net::varint_encode(128, buf);
  EXPECT_EQ(buf.size(), 3u);  // 128 takes two bytes
}

TEST(Varint, TruncationThrows) {
  std::vector<std::uint8_t> buf;
  net::varint_encode(std::numeric_limits<std::uint64_t>::max(), buf);
  std::size_t cursor = 0;
  EXPECT_THROW(net::varint_decode(buf.data(), buf.size() - 1, &cursor),
               net::WireError);
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

TEST(CodecNames, RoundTrip) {
  for (Codec c : {Codec::kFp32, Codec::kFp16, Codec::kInt8}) {
    const auto parsed = net::codec_from_name(net::codec_name(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(net::codec_from_name("bf16").has_value());
  EXPECT_FALSE(net::codec_from_name("").has_value());
}

TEST(Codec, PayloadSizes) {
  EXPECT_EQ(net::encoded_payload_size(10, Codec::kFp32), 40u);
  EXPECT_EQ(net::encoded_payload_size(10, Codec::kFp16), 20u);
  EXPECT_EQ(net::encoded_payload_size(10, Codec::kInt8), 18u);  // 8B header + codes
}

TEST(Codec, Fp32RoundTripIsExact) {
  Rng rng(7);
  Tensor t = Tensor::randn({3, 5, 2}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, Codec::kFp32, buf);
  Tensor back = net::decode_tensor(buf.data(), buf.size(), t.shape(), Codec::kFp32);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back.data()[i], t.data()[i]);
}

TEST(Codec, HalfConversionSpecials) {
  EXPECT_EQ(net::half_to_float(net::float_to_half(0.0f)), 0.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(1.0f)), 1.0f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(-2.5f)), -2.5f);
  EXPECT_EQ(net::half_to_float(net::float_to_half(6.1035156e-05f)),
            6.1035156e-05f);  // smallest normal half
  // Subnormal halves are exact multiples of 2^-24 and must round-trip too
  // (a renormalization off-by-one here once halved every subnormal).
  EXPECT_EQ(net::half_to_float(net::float_to_half(5.9604645e-08f)),
            5.9604645e-08f);  // smallest subnormal half, 2^-24
  EXPECT_EQ(net::half_to_float(net::float_to_half(6.0975552e-05f)),
            6.0975552e-05f);  // largest subnormal half, 1023 * 2^-24
}

TEST(Codec, Int8ConstantTensorIsExact) {
  Tensor t({4, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) t.data()[i] = 0.75f;
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, Codec::kInt8, buf);
  Tensor back = net::decode_tensor(buf.data(), buf.size(), t.shape(), Codec::kInt8);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(back.data()[i], 0.75f);
}

TEST(Codec, SizeMismatchThrows) {
  Rng rng(8);
  Tensor t = Tensor::randn({4}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, Codec::kFp16, buf);
  EXPECT_THROW(net::decode_tensor(buf.data(), buf.size() - 1, t.shape(), Codec::kFp16),
               net::CodecError);
  EXPECT_THROW(net::decode_tensor(buf.data(), buf.size(), {5}, Codec::kFp16),
               net::CodecError);
}

/// Round-trip error of one tensor under one codec, checked against the
/// codec's documented bound.
void expect_bounded_roundtrip(const Tensor& t, Codec codec) {
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    lo = std::min(lo, t.data()[i]);
    hi = std::max(hi, t.data()[i]);
  }
  const double bound = net::codec_error_bound(codec, lo, hi);
  std::vector<std::uint8_t> buf;
  const std::size_t appended = net::encode_tensor(t, codec, buf);
  EXPECT_EQ(appended, net::encoded_payload_size(t.numel(), codec));
  Tensor back = net::decode_tensor(buf.data(), buf.size(), t.shape(), codec);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double err = std::abs(static_cast<double>(back.data()[i]) -
                                static_cast<double>(t.data()[i]));
    ASSERT_LE(err, bound) << "codec " << net::codec_name(codec) << " scalar " << i;
  }
}

/// Property-style sweep: every submodel the pool can dispatch (all pool
/// levels x starting layers), with randomized parameter values, must
/// round-trip exactly under fp32 and within the documented bound under
/// fp16 / int8.
TEST(CodecProperty, BoundedRoundTripOverAllPoolShapes) {
  ArchSpec spec = mini_vgg(10, 3, 12);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));
  Rng rng(42);
  const ParamSet global = pool.build(pool.largest_index(), &rng).export_params();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const ParamSet sub = pool.split(global, i);
    for (const auto& [name, tensor] : sub) {
      expect_bounded_roundtrip(tensor, Codec::kFp32);
      expect_bounded_roundtrip(tensor, Codec::kFp16);
      expect_bounded_roundtrip(tensor, Codec::kInt8);
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse top-k codecs (docs/COMPRESSION.md)
// ---------------------------------------------------------------------------

TEST(CodecNames, SparseFamilyRoundTripsAndAliases) {
  for (Codec c : {Codec::kTopK1, Codec::kTopK5, Codec::kTopK10, Codec::kTopK25}) {
    const auto parsed = net::codec_from_name(net::codec_name(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
    EXPECT_TRUE(net::codec_is_sparse(c));
  }
  // "topk" is the default-percentage alias, and parsing ignores case.
  EXPECT_EQ(net::codec_from_name("topk"), Codec::kTopK10);
  EXPECT_EQ(net::codec_from_name("TopK25"), Codec::kTopK25);
  EXPECT_EQ(net::codec_from_name("FP16"), Codec::kFp16);
  EXPECT_EQ(net::codec_from_name("Int8"), Codec::kInt8);
}

TEST(CodecNames, ParseRejectionListsValidCodecs) {
  EXPECT_EQ(net::codec_parse("tOpK5", "AFL_NET_CODEC"), Codec::kTopK5);
  try {
    net::codec_parse("bf16", "AFL_NET_CODEC");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("AFL_NET_CODEC"), std::string::npos) << what;
    EXPECT_NE(what.find("bf16"), std::string::npos) << what;
    EXPECT_NE(what.find(net::codec_valid_names()), std::string::npos) << what;
  }
}

TEST(Codec, KeptCoordsFormula) {
  // max(1, ceil(numel * pct / 100)); empty tensors keep nothing.
  EXPECT_EQ(net::codec_kept_coords(0, Codec::kTopK10), 0u);
  EXPECT_EQ(net::codec_kept_coords(1, Codec::kTopK1), 1u);
  EXPECT_EQ(net::codec_kept_coords(100, Codec::kTopK1), 1u);
  EXPECT_EQ(net::codec_kept_coords(101, Codec::kTopK1), 2u);
  EXPECT_EQ(net::codec_kept_coords(10, Codec::kTopK10), 1u);
  EXPECT_EQ(net::codec_kept_coords(11, Codec::kTopK10), 2u);
  EXPECT_EQ(net::codec_kept_coords(8, Codec::kTopK25), 2u);
  EXPECT_EQ(net::codec_kept_coords(100, Codec::kFp32), 100u);  // dense
}

TEST(Codec, TopKRoundTripKeepsLargestExactly) {
  Tensor t({8});
  const float values[] = {0.1f, -3.0f, 0.2f, 2.5f, -0.05f, 0.0f, 1.0f, -0.7f};
  for (std::size_t i = 0; i < t.numel(); ++i) t.data()[i] = values[i];
  std::vector<std::uint8_t> buf;
  const std::size_t appended = net::encode_tensor(t, Codec::kTopK25, buf);
  EXPECT_LE(appended, net::encoded_payload_size(t.numel(), Codec::kTopK25));
  Tensor back = net::decode_tensor(buf.data(), buf.size(), t.shape(), Codec::kTopK25);
  // k = ceil(8 * 25%) = 2: indices 1 (-3.0) and 3 (2.5) survive bit-exact.
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (i == 1 || i == 3) {
      EXPECT_EQ(back.data()[i], t.data()[i]) << i;
    } else {
      EXPECT_EQ(back.data()[i], 0.0f) << i;
    }
  }
}

TEST(Codec, TopKSelectBreaksTiesTowardLowerIndex) {
  const float data[] = {1.0f, -1.0f, 1.0f, 0.5f};
  const std::vector<std::uint32_t> kept = net::topk_select(data, 4, 2);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 0u);
  EXPECT_EQ(kept[1], 1u);
}

TEST(Codec, SparseCorruptionAndTruncationThrow) {
  Rng rng(55);
  Tensor t = Tensor::randn({6, 6}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, Codec::kTopK10, buf);
  // Truncation.
  EXPECT_THROW(
      net::decode_tensor(buf.data(), buf.size() - 1, t.shape(), Codec::kTopK10),
      net::CodecError);
  // Trailing bytes.
  std::vector<std::uint8_t> longer = buf;
  longer.push_back(0x00);
  EXPECT_THROW(
      net::decode_tensor(longer.data(), longer.size(), t.shape(), Codec::kTopK10),
      net::CodecError);
  // Wrong declared count: the leading varint must equal codec_kept_coords.
  std::vector<std::uint8_t> bad = buf;
  bad[0] = static_cast<std::uint8_t>(bad[0] + 1);
  EXPECT_THROW(
      net::decode_tensor(bad.data(), bad.size(), t.shape(), Codec::kTopK10),
      net::CodecError);
}

TEST(Codec, SparseCountThePayloadCannotHoldIsRefusedBeforeTheTensor) {
  // A top-k1 payload for 2^24 elements must carry 167773 entries of at least
  // five bytes each. One that holds only that count is refused on the count,
  // before the decoder allocates the 64 MiB tensor.
  const Shape shape{std::size_t{1} << 24};
  std::uint64_t k = net::codec_kept_coords(shape[0], Codec::kTopK1);
  std::vector<std::uint8_t> payload;
  for (; k >= 0x80; k >>= 7) payload.push_back(static_cast<std::uint8_t>(k | 0x80));
  payload.push_back(static_cast<std::uint8_t>(k));
  try {
    net::decode_tensor(payload.data(), payload.size(), shape, Codec::kTopK1, "fc.w");
    FAIL() << "expected CodecError";
  } catch (const net::CodecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot hold 167773 coords"), std::string::npos) << what;
    EXPECT_NE(what.find("fc.w"), std::string::npos) << what;
  }
}

TEST(Codec, ErrorsQuoteTensorNameAndShape) {
  Rng rng(56);
  Tensor t = Tensor::randn({3, 4}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, Codec::kTopK10, buf);
  try {
    net::decode_tensor(buf.data(), buf.size() - 1, t.shape(), Codec::kTopK10,
                       "conv1.w");
    FAIL() << "expected CodecError";
  } catch (const net::CodecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conv1.w"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

ParamSet small_params(std::uint64_t seed) {
  Rng rng(seed);
  ParamSet ps;
  ps.emplace("conv.w", Tensor::randn({4, 3, 3, 3}, rng));
  ps.emplace("conv.b", Tensor::randn({4}, rng));
  ps.emplace("fc.w", Tensor::randn({10, 4}, rng));
  return ps;
}

TEST(Wire, RoundTripsHeaderAndPayload) {
  const ParamSet ps = small_params(1);
  const std::vector<std::uint8_t> frame =
      net::encode_frame({FrameKind::kReturn, Codec::kFp32, 7, 123}, ps);
  FrameHeader header;
  const ParamSet back = net::decode_frame(frame.data(), frame.size(), &header);
  EXPECT_EQ(header.kind, FrameKind::kReturn);
  EXPECT_EQ(header.codec, Codec::kFp32);
  EXPECT_EQ(header.round, 7u);
  EXPECT_EQ(header.client, 123u);
  ASSERT_EQ(back.size(), ps.size());
  for (const auto& [name, tensor] : ps) {
    ASSERT_TRUE(back.count(name)) << name;
    ASSERT_EQ(back.at(name).shape(), tensor.shape());
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_EQ(back.at(name).data()[i], tensor.data()[i]);
    }
  }
}

TEST(Wire, EncodingIsDeterministic) {
  const ParamSet ps = small_params(2);
  const FrameHeader h{FrameKind::kDispatch, Codec::kInt8, 3, 9};
  EXPECT_EQ(net::encode_frame(h, ps), net::encode_frame(h, ps));
}

TEST(Wire, EveryCorruptedByteIsDetected) {
  ParamSet ps;
  Rng rng(3);
  ps.emplace("w", Tensor::randn({3, 3}, rng));
  const std::vector<std::uint8_t> frame =
      net::encode_frame({FrameKind::kDispatch, Codec::kFp32, 1, 2}, ps);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0x01;
    EXPECT_THROW((void)net::decode_frame(bad), net::WireError) << "byte " << i;
  }
}

TEST(Wire, TruncationThrows) {
  const ParamSet ps = small_params(4);
  const std::vector<std::uint8_t> frame =
      net::encode_frame({FrameKind::kDispatch, Codec::kFp16, 1, 1}, ps);
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{10},
                          frame.size() - 1}) {
    EXPECT_THROW((void)net::decode_frame(frame.data(), cut), net::WireError);
  }
}

TEST(Wire, TrailingGarbageThrows) {
  const ParamSet ps = small_params(5);
  std::vector<std::uint8_t> frame =
      net::encode_frame({FrameKind::kDispatch, Codec::kFp32, 1, 1}, ps);
  frame.push_back(0x00);
  EXPECT_THROW((void)net::decode_frame(frame), net::WireError);
}

TEST(Wire, ShapeWhoseProductWrapsIsRejected) {
  // dims {2^32, 2^32}: each factor is within the numel cap, but their
  // product wraps a u64 to 0, which must not read as an empty tensor.
  std::vector<std::uint8_t> frame = {'A', 'F', 'N', 'W', net::kWireVersion,
                                     static_cast<std::uint8_t>(FrameKind::kDispatch),
                                     static_cast<std::uint8_t>(Codec::kFp32)};
  net::varint_encode(0, frame);  // round
  net::varint_encode(0, frame);  // client
  net::varint_encode(1, frame);  // tensor count
  net::varint_encode(1, frame);  // name length
  frame.push_back('w');
  net::varint_encode(2, frame);  // rank
  net::varint_encode(std::uint64_t{1} << 32, frame);
  net::varint_encode(std::uint64_t{1} << 32, frame);
  net::varint_encode(0, frame);  // payload length
  const std::uint32_t crc = crc32(frame.data() + 4, frame.size() - 4);
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  try {
    (void)net::decode_frame(frame);
    FAIL() << "a wrapped shape was accepted";
  } catch (const net::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("tensor too large"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Channel model
// ---------------------------------------------------------------------------

TEST(Channel, TransferTimeIsLatencyPlusSerialization) {
  ChannelConfig ch;
  ch.bandwidth_bytes_per_s = 1000.0;
  ch.latency_s = 0.5;
  EXPECT_DOUBLE_EQ(net::transfer_seconds(ch, 2000), 0.5 + 2.0);
  ch.bandwidth_bytes_per_s = 0.0;  // infinite link
  EXPECT_DOUBLE_EQ(net::transfer_seconds(ch, 1 << 20), 0.5);
}

TEST(Channel, LosslessChannelLeavesRngUntouched) {
  ChannelConfig lossless;
  Rng a(11), b(11);
  EXPECT_FALSE(net::attempt_lost(lossless, a));
  // `a` must not have consumed a draw: both streams still agree.
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Channel, LossDrawsAreDeterministic) {
  ChannelConfig ch;
  ch.loss_prob = 0.5;
  Rng a(13), b(13);
  std::size_t lost = 0;
  for (int i = 0; i < 200; ++i) {
    const bool la = net::attempt_lost(ch, a);
    EXPECT_EQ(la, net::attempt_lost(ch, b));
    lost += la;
  }
  EXPECT_GT(lost, 50u);  // sanity: p=0.5 over 200 draws
  EXPECT_LT(lost, 150u);
}

// ---------------------------------------------------------------------------
// Fault plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesMixedSpecs) {
  const auto plan =
      net::parse_fault_plan("drop@2:5, up.corrupt@3:1; delay@4:0=0.25");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::kDrop);
  EXPECT_FALSE(plan[0].uplink);
  EXPECT_EQ(plan[0].round, 2u);
  EXPECT_EQ(plan[0].client, 5u);
  EXPECT_EQ(plan[1].kind, FaultSpec::Kind::kCorrupt);
  EXPECT_TRUE(plan[1].uplink);
  EXPECT_EQ(plan[2].kind, FaultSpec::Kind::kDelay);
  EXPECT_DOUBLE_EQ(plan[2].delay_s, 0.25);
}

TEST(FaultPlan, EmptyAndWhitespaceOk) {
  EXPECT_TRUE(net::parse_fault_plan("").empty());
  EXPECT_TRUE(net::parse_fault_plan(" , ; ").empty());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(net::parse_fault_plan("explode@1:2"), std::invalid_argument);
  EXPECT_THROW(net::parse_fault_plan("drop1:2"), std::invalid_argument);
  EXPECT_THROW(net::parse_fault_plan("drop@12"), std::invalid_argument);
  EXPECT_THROW(net::parse_fault_plan("drop@1:2=0.5"), std::invalid_argument);
  EXPECT_THROW(net::parse_fault_plan("delay@1:2"), std::invalid_argument);
  EXPECT_THROW(net::parse_fault_plan("drop@x:y"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

NetConfig lossless_config() {
  NetConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(TransportTest, DisabledByDefault) {
  Transport t;
  EXPECT_FALSE(t.enabled());
}

TEST(TransportTest, LosslessRealPayloadRoundTrips) {
  Transport t(lossless_config(), /*run_seed=*/1);
  auto sess = t.session(1, 0);
  const ParamSet ps = small_params(9);
  const net::Delivery d = t.send(sess, FrameKind::kDispatch, ps);
  EXPECT_TRUE(d.transfer.delivered);
  EXPECT_EQ(d.transfer.attempts, 1u);
  // The channel charges the real frame's bytes.
  EXPECT_EQ(d.transfer.bytes,
            net::encode_frame({FrameKind::kDispatch, Codec::kFp32, 1, 0}, ps).size());
  ASSERT_EQ(d.params.size(), ps.size());
  for (const auto& [name, tensor] : ps) {
    for (std::size_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_EQ(d.params.at(name).data()[i], tensor.data()[i]);
    }
  }
}

TEST(TransportTest, DropFaultExhaustsRetries) {
  NetConfig cfg = lossless_config();
  cfg.max_retries = 2;
  cfg.faults = net::parse_fault_plan("drop@1:4");
  Transport t(cfg, 1);
  auto sess = t.session(1, 4);
  // The fault fires on the first attempt only; retries succeed.
  const net::Delivery d = t.send(sess, FrameKind::kDispatch, small_params(1));
  EXPECT_TRUE(d.transfer.delivered);
  EXPECT_EQ(d.transfer.attempts, 2u);

  // With no retries allowed, the same fault drops the frame for good.
  cfg.max_retries = 0;
  Transport t2(cfg, 1);
  auto sess2 = t2.session(1, 4);
  const net::Delivery d2 = t2.send(sess2, FrameKind::kDispatch, small_params(1));
  EXPECT_FALSE(d2.transfer.delivered);
  EXPECT_EQ(d2.transfer.attempts, 1u);
}

TEST(TransportTest, CorruptFaultIsCaughtByCrcAndRetried) {
  NetConfig cfg = lossless_config();
  cfg.faults = net::parse_fault_plan("corrupt@2:7");
  Transport t(cfg, 1);
  auto sess = t.session(2, 7);
  const ParamSet ps = small_params(10);
  const net::Delivery d = t.send(sess, FrameKind::kDispatch, ps);
  EXPECT_TRUE(d.transfer.delivered);
  EXPECT_EQ(d.transfer.attempts, 2u);  // first frame corrupt, second clean
  EXPECT_EQ(d.params.size(), ps.size());
}

TEST(TransportTest, UplinkFaultDoesNotHitDownlink) {
  NetConfig cfg = lossless_config();
  cfg.max_retries = 0;
  cfg.faults = net::parse_fault_plan("up.drop@1:2");
  Transport t(cfg, 1);
  auto sess = t.session(1, 2);
  EXPECT_TRUE(t.send(sess, FrameKind::kDispatch, small_params(1)).transfer.delivered);
  EXPECT_FALSE(t.send(sess, FrameKind::kReturn, small_params(1)).transfer.delivered);
}

TEST(TransportTest, DelayFaultAddsSimulatedSeconds) {
  NetConfig cfg = lossless_config();
  cfg.faults = net::parse_fault_plan("delay@1:0=0.75");
  Transport t(cfg, 1);
  auto sess = t.session(1, 0);
  const net::Delivery d = t.send(sess, FrameKind::kDispatch, small_params(1));
  EXPECT_TRUE(d.transfer.delivered);
  EXPECT_DOUBLE_EQ(d.transfer.seconds, 0.75);
  EXPECT_DOUBLE_EQ(sess.elapsed_seconds(), 0.75);
}

TEST(TransportTest, BackoffIsCappedExponential) {
  NetConfig cfg = lossless_config();
  cfg.channel.loss_prob = 1.0;  // every attempt lost
  cfg.max_retries = 4;
  cfg.backoff_base_s = 0.1;
  cfg.backoff_cap_s = 0.3;
  Transport t(cfg, 1);
  auto sess = t.session(1, 1);
  const net::Delivery d = t.send(sess, FrameKind::kDispatch, small_params(1));
  EXPECT_FALSE(d.transfer.delivered);
  EXPECT_EQ(d.transfer.attempts, 5u);
  // Backoffs between the 5 attempts: 0.1, 0.2, 0.3 (capped), 0.3 (capped).
  EXPECT_NEAR(d.transfer.seconds, 0.1 + 0.2 + 0.3 + 0.3, 1e-12);
}

TEST(TransportTest, LossDrawsAreReproducibleAcrossInstances) {
  NetConfig cfg = lossless_config();
  cfg.channel.loss_prob = 0.4;
  cfg.max_retries = 3;
  Transport a(cfg, 99), b(cfg, 99);
  std::size_t retransmitted = 0;
  for (std::size_t round = 1; round <= 4; ++round) {
    for (std::size_t client = 0; client < 16; ++client) {
      auto sa = a.session(round, client);
      auto sb = b.session(round, client);
      const net::Delivery da = a.send(sa, FrameKind::kDispatch, small_params(1));
      const net::Delivery db = b.send(sb, FrameKind::kDispatch, small_params(1));
      EXPECT_EQ(da.transfer.delivered, db.transfer.delivered);
      EXPECT_EQ(da.transfer.attempts, db.transfer.attempts);
      EXPECT_DOUBLE_EQ(da.transfer.seconds, db.transfer.seconds);
      retransmitted += da.transfer.attempts - 1;
    }
  }
  EXPECT_GT(retransmitted, 0u);  // p=0.4 over 64 frames: retries must occur
}

TEST(TransportTest, SessionsAreIndependentPerClient) {
  NetConfig cfg = lossless_config();
  cfg.channel.loss_prob = 0.5;
  cfg.max_retries = 6;
  Transport t(cfg, 7);
  // Client 3's outcome must not depend on whether client 2 transferred first
  // (the engine may skip clients on availability): sessions derive their own
  // streams instead of sharing one.
  auto s3a = t.session(1, 3);
  const net::Delivery first = t.send(s3a, FrameKind::kDispatch, small_params(1));
  auto s2 = t.session(1, 2);
  (void)t.send(s2, FrameKind::kDispatch, small_params(1));
  auto s3b = t.session(1, 3);
  const net::Delivery second = t.send(s3b, FrameKind::kDispatch, small_params(1));
  EXPECT_EQ(first.transfer.attempts, second.transfer.attempts);
  EXPECT_EQ(first.transfer.delivered, second.transfer.delivered);
}

// ---------------------------------------------------------------------------
// NetConfig::from_env
// ---------------------------------------------------------------------------

/// Scoped setter so env mutations cannot leak across tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(NetConfigEnv, DisabledWhenUnset) {
  ::unsetenv("AFL_NET");
  EXPECT_FALSE(NetConfig::from_env().enabled);
  ScopedEnv off("AFL_NET", "0");
  EXPECT_FALSE(NetConfig::from_env().enabled);
}

TEST(NetConfigEnv, ParsesFullConfiguration) {
  ScopedEnv on("AFL_NET", "1");
  ScopedEnv codec("AFL_NET_CODEC", "int8");
  ScopedEnv bw("AFL_NET_BW_MBPS", "8");
  ScopedEnv lat("AFL_NET_LATENCY_MS", "20");
  ScopedEnv loss("AFL_NET_LOSS", "0.1");
  ScopedEnv retries("AFL_NET_RETRIES", "5");
  ScopedEnv backoff("AFL_NET_BACKOFF_MS", "10");
  ScopedEnv cap("AFL_NET_BACKOFF_CAP_MS", "100");
  ScopedEnv deadline("AFL_NET_DEADLINE_MS", "1500");
  ScopedEnv compute("AFL_NET_COMPUTE_MS_PER_KPARAM", "2");
  ScopedEnv faults("AFL_FAULTS", "drop@1:2");
  const NetConfig cfg = NetConfig::from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.codec, Codec::kInt8);
  EXPECT_DOUBLE_EQ(cfg.channel.bandwidth_bytes_per_s, 1e6);  // 8 Mbps
  EXPECT_DOUBLE_EQ(cfg.channel.latency_s, 0.02);
  EXPECT_DOUBLE_EQ(cfg.channel.loss_prob, 0.1);
  EXPECT_EQ(cfg.max_retries, 5u);
  EXPECT_DOUBLE_EQ(cfg.backoff_base_s, 0.01);
  EXPECT_DOUBLE_EQ(cfg.backoff_cap_s, 0.1);
  EXPECT_DOUBLE_EQ(cfg.round_deadline_s, 1.5);
  EXPECT_DOUBLE_EQ(cfg.compute_s_per_kparam, 0.002);
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(cfg.faults[0].round, 1u);
}

TEST(NetConfigEnv, UnknownCodecThrows) {
  ScopedEnv on("AFL_NET", "1");
  ScopedEnv codec("AFL_NET_CODEC", "bf16");
  EXPECT_THROW(NetConfig::from_env(), std::invalid_argument);
}

}  // namespace
}  // namespace afl
