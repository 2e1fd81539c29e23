#pragma once
// Pluggable payload codecs for the simulated transport (see docs/NET.md and
// docs/COMPRESSION.md).
//
// A codec turns one tensor's float data into wire bytes and back. Dense
// codecs ship every scalar:
//
//   fp32  4 B/scalar  bit-exact passthrough (the identity codec)
//   fp16  2 B/scalar  IEEE 754 half, round-to-nearest-even
//   int8  1 B/scalar  per-tensor affine quantization: an 8-byte header
//                     (f32 min, f32 scale) followed by u8 codes;
//                     x ~= min + q * scale, |error| <= scale / 2
//
// Sparse codecs (the kTopK family) ship only the k = ceil(pct% * numel)
// largest-magnitude coordinates as a varint count followed by
// (index varint-delta, f32 value) pairs — the uplink compression format of
// src/compress/ (docs/COMPRESSION.md). Kept coordinates are bit-exact;
// dropped coordinates decode to zero, so top-k is only meaningful for
// delta-coded uplinks (the transport rejects it on the downlink).
//
// Encoding is deterministic (same tensor -> same bytes) and decode(encode(t))
// preserves the tensor's shape exactly; the reconstruction error is zero for
// fp32 and bounded as documented above for the lossy codecs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace afl::net {

enum class Codec : std::uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
  // Top-k sparse family: the suffix is the kept-coordinate percentage.
  kTopK1 = 3,
  kTopK5 = 4,
  kTopK10 = 5,
  kTopK25 = 6,
};

const char* codec_name(Codec codec);

/// Parses a codec name, case-insensitively: "fp32" / "fp16" / "int8" /
/// "topk1" / "topk5" / "topk10" / "topk25", plus the alias "topk" for the
/// default 10% sparsifier. nullopt on anything else.
std::optional<Codec> codec_from_name(std::string_view name);

/// All names codec_from_name accepts, as a "a|b|c" list for error messages.
const char* codec_valid_names();

/// codec_from_name that throws std::invalid_argument listing the valid
/// codecs. `context` prefixes the message (e.g. the env var being parsed).
Codec codec_parse(std::string_view name, std::string_view context);

/// True for the kTopK family (content-dependent payload size, uplink-only).
bool codec_is_sparse(Codec codec);

/// Kept-coordinate percentage of a sparse codec; 0 for dense codecs.
unsigned codec_topk_percent(Codec codec);

/// Coordinates a sparse codec keeps for a tensor of `numel` scalars:
/// max(1, ceil(numel * pct / 100)), and 0 for an empty tensor. Dense codecs
/// return `numel`.
std::size_t codec_kept_coords(std::size_t numel, Codec codec);

/// Deterministic top-k selection: the indices of the `k` largest-magnitude
/// scalars (ties broken toward the lower index; NaN sorts as +inf), returned
/// sorted ascending. Linear time: one partition finds the k-th largest
/// magnitude, and none runs when at most k scalars are nonzero. Shared by the
/// sparse codecs and src/compress/ so both sides of the error-feedback split
/// agree on every coordinate.
std::vector<std::uint32_t> topk_select(const float* data, std::size_t n,
                                       std::size_t k);

/// Thrown by decode_tensor on malformed payloads.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Payload bytes a tensor of `numel` scalars occupies under `codec`
/// (including the int8 per-tensor header). For sparse codecs the true size
/// is content-dependent; this returns the worst-case bound (every index
/// delta at its maximal varint width), which frame-buffer reservation uses.
std::size_t encoded_payload_size(std::size_t numel, Codec codec);

/// Appends the tensor's encoded payload to `out`; returns the bytes appended.
/// Dense codecs append exactly encoded_payload_size(t.numel(), codec); a
/// sparse payload's size depends on its content and never exceeds that bound.
std::size_t encode_tensor(const Tensor& t, Codec codec, std::vector<std::uint8_t>& out);

/// Decodes a payload of exactly `size` bytes into a tensor of `shape`.
/// Throws CodecError when `size` disagrees with the shape/codec (or, for
/// sparse payloads, when the index stream is malformed). `name`, when
/// non-empty, is quoted in error messages alongside the shape.
Tensor decode_tensor(const std::uint8_t* data, std::size_t size, const Shape& shape,
                     Codec codec, std::string_view name = {});

/// Upper bound on |decode(encode(x)) - x| for any scalar of a tensor whose
/// values lie in [lo, hi]. Zero for fp32. A sparse codec may drop any
/// coordinate entirely, so its bound is the largest magnitude in range.
/// Used by the round-trip tests.
double codec_error_bound(Codec codec, float lo, float hi);

/// IEEE 754 binary16 conversions (round-to-nearest-even), exposed for tests.
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

}  // namespace afl::net
