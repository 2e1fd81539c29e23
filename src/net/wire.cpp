#include "net/wire.hpp"

#include <algorithm>
#include <cstring>

#include "obs/prof/prof.hpp"
#include "util/crc32.hpp"

namespace afl::net {
namespace {

constexpr char kMagic[4] = {'A', 'F', 'N', 'W'};
// Hard cap against hostile / corrupted frames turning into huge allocations
// (mirrors the checkpoint loader's limits), beside kMaxRank and kMaxNumel.
constexpr std::uint64_t kMaxNameLen = 4096;

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t varint_decode(const std::uint8_t* data, std::size_t size,
                            std::size_t* cursor) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*cursor >= size) throw WireError("wire: truncated varint");
    const std::uint8_t byte = data[(*cursor)++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) return v;
    shift += 7;
  }
  throw WireError("wire: varint too long");
}

std::vector<std::uint8_t> encode_frame(const FrameHeader& header, const ParamSet& params) {
  AFL_PROF_SPAN("net.frame.encode");
  std::vector<std::uint8_t> out;
  // Rough reservation: payload plus a small per-tensor overhead allowance.
  std::size_t payload = 0;
  for (const auto& [name, tensor] : params) {
    payload += encoded_payload_size(tensor.numel(), header.codec) + name.size() + 16;
  }
  out.reserve(payload + 32);

  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(header.kind));
  out.push_back(static_cast<std::uint8_t>(header.codec));
  varint_encode(header.round, out);
  varint_encode(header.client, out);
  varint_encode(params.size(), out);
  for (const auto& [name, tensor] : params) {
    varint_encode(name.size(), out);
    out.insert(out.end(), name.begin(), name.end());
    varint_encode(tensor.rank(), out);
    for (std::size_t d = 0; d < tensor.rank(); ++d) varint_encode(tensor.dim(d), out);
    if (codec_is_sparse(header.codec)) {
      // A sparse payload's size depends on its content: encode it once,
      // append its length, and rotate the length in front of the payload.
      const std::size_t at = out.size();
      const std::size_t len = encode_tensor(tensor, header.codec, out);
      varint_encode(len, out);
      std::rotate(out.begin() + static_cast<std::ptrdiff_t>(at),
                  out.begin() + static_cast<std::ptrdiff_t>(at + len), out.end());
    } else {
      varint_encode(encoded_payload_size(tensor.numel(), header.codec), out);
      encode_tensor(tensor, header.codec, out);
    }
  }
  put_u32_le(out, crc32(out.data() + sizeof(kMagic), out.size() - sizeof(kMagic)));
  return out;
}

ParamSet decode_frame(const std::uint8_t* data, std::size_t size, FrameHeader* header) {
  AFL_PROF_SPAN("net.frame.decode");
  if (size < sizeof(kMagic) + 3 + 4) throw WireError("wire: frame too short");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw WireError("wire: bad magic");
  }
  const std::uint32_t want_crc = get_u32_le(data + size - 4);
  const std::uint32_t got_crc =
      crc32(data + sizeof(kMagic), size - sizeof(kMagic) - 4);
  if (want_crc != got_crc) throw WireError("wire: CRC mismatch (corrupt frame)");

  std::size_t cur = sizeof(kMagic);
  const std::size_t end = size - 4;  // stop before the trailing CRC
  const std::uint8_t version = data[cur++];
  if (version != kWireVersion) {
    throw WireError("wire: unknown version " + std::to_string(version));
  }
  const std::uint8_t kind = data[cur++];
  if (kind > static_cast<std::uint8_t>(FrameKind::kReturn)) {
    throw WireError("wire: unknown frame kind " + std::to_string(kind));
  }
  const std::uint8_t codec = data[cur++];
  if (codec > static_cast<std::uint8_t>(Codec::kTopK25)) {
    throw WireError("wire: unknown codec " + std::to_string(codec));
  }
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind);
  h.codec = static_cast<Codec>(codec);
  h.round = varint_decode(data, end, &cur);
  h.client = varint_decode(data, end, &cur);
  const std::uint64_t count = varint_decode(data, end, &cur);

  ParamSet params;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = varint_decode(data, end, &cur);
    if (name_len > kMaxNameLen) throw WireError("wire: parameter name too long");
    if (cur + name_len > end) throw WireError("wire: truncated name");
    std::string name(reinterpret_cast<const char*>(data + cur), name_len);
    cur += name_len;
    const std::uint64_t rank = varint_decode(data, end, &cur);
    if (rank > kMaxRank) throw WireError("wire: rank too large");
    Shape shape(rank);
    std::uint64_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d) {
      shape[d] = varint_decode(data, end, &cur);
      // Checked before the multiply, so no product can wrap below the cap.
      if (shape[d] != 0 && numel > kMaxNumel / shape[d]) {
        throw WireError("wire: tensor too large");
      }
      numel *= shape[d];
    }
    const std::uint64_t payload_len = varint_decode(data, end, &cur);
    if (cur + payload_len > end) throw WireError("wire: truncated payload");
    Tensor t;
    try {
      t = decode_tensor(data + cur, payload_len, shape, h.codec, name);
    } catch (const CodecError& e) {
      throw WireError(std::string("wire: ") + e.what());
    }
    cur += payload_len;
    if (!params.emplace(std::move(name), std::move(t)).second) {
      throw WireError("wire: duplicate parameter name");
    }
  }
  if (cur != end) throw WireError("wire: trailing bytes after payload");
  if (header != nullptr) *header = h;
  return params;
}

}  // namespace afl::net
