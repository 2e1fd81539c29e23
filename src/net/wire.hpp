#pragma once
// Versioned binary frame for submodel dispatch / return (see docs/NET.md).
//
// Layout (all multi-byte integers are LEB128 varints unless noted):
//
//   magic   "AFNW"                      4 bytes
//   version u8 (currently 1)
//   kind    u8 (0 dispatch, 1 return)
//   codec   u8 (net/codec.hpp)
//   varint  round
//   varint  client
//   varint  tensor count
//   per tensor (ParamSet iteration order, i.e. sorted by name):
//     varint  name length, name bytes
//     varint  rank, varint dims[rank]
//     varint  payload length, payload bytes (codec-encoded)
//   crc32   u32 little-endian over every byte after the magic
//
// decode_frame() rejects bad magic, unknown version/kind/codec, truncation,
// and CRC mismatch with WireError — a corrupted frame is detected, never
// silently mis-parsed. Frames measure communication volume in real bytes:
// frame.size() is what the simulated channel charges for.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "nn/param.hpp"

namespace afl::net {

inline constexpr std::uint8_t kWireVersion = 1;

/// Shape caps decode_frame() enforces on every tensor, so a hostile or
/// corrupted frame cannot turn into a huge allocation. Other readers of
/// tensor shapes from untrusted bytes (engine snapshots) apply the same caps.
inline constexpr std::uint64_t kMaxRank = 8;
inline constexpr std::uint64_t kMaxNumel = 1ULL << 32;

enum class FrameKind : std::uint8_t { kDispatch = 0, kReturn = 1 };

struct FrameHeader {
  FrameKind kind = FrameKind::kDispatch;
  Codec codec = Codec::kFp32;
  std::uint64_t round = 0;
  std::uint64_t client = 0;
};

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends `v` to `out` as an unsigned LEB128 varint.
void varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out);

/// Reads a varint at data[*cursor], advancing *cursor. Throws WireError on
/// truncation or a varint longer than 10 bytes.
std::uint64_t varint_decode(const std::uint8_t* data, std::size_t size,
                            std::size_t* cursor);

/// Serializes `params` into one frame.
std::vector<std::uint8_t> encode_frame(const FrameHeader& header, const ParamSet& params);

/// Parses and integrity-checks a frame; fills `header` when non-null.
ParamSet decode_frame(const std::uint8_t* data, std::size_t size,
                      FrameHeader* header = nullptr);

inline ParamSet decode_frame(const std::vector<std::uint8_t>& frame,
                             FrameHeader* header = nullptr) {
  return decode_frame(frame.data(), frame.size(), header);
}

}  // namespace afl::net
