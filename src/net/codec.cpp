#include "net/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "obs/prof/prof.hpp"

namespace afl::net {
namespace {

void append_bytes(std::vector<std::uint8_t>& out, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + size);
}

void append_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

float read_f32(const std::uint8_t* p) {
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) bits |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr std::size_t kInt8HeaderBytes = 8;  // f32 min + f32 scale

// Local varints for sparse payload internals. Same LEB128 wire format as
// net/wire.cpp, but failures here are codec-level (CodecError), not frame
// truncation, so the helpers live on this side of the layer.
void varint_append(std::uint64_t v, std::vector<std::uint8_t>& out) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_bytes(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80u) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint64_t varint_read(const std::uint8_t* data, std::size_t size,
                          std::size_t* cursor, const std::string& what) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*cursor >= size) throw CodecError("codec: truncated " + what);
    const std::uint8_t byte = data[(*cursor)++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) return v;
    shift += 7;
  }
  throw CodecError("codec: overlong varint in " + what);
}

/// Magnitude key of the top-k order: the bits of |v|, with NaN clamped to
/// +inf's bits. Non-negative floats order like their bit patterns, so the
/// keys compare exactly as the magnitudes do (±0 share key 0).
std::uint32_t topk_key(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return std::min(bits & 0x7FFFFFFFu, 0x7F800000u);
}

/// Tensor context suffix for decode errors: ` (tensor "name")` or nothing.
std::string tensor_context(std::string_view name) {
  if (name.empty()) return std::string{};
  return " (tensor \"" + std::string(name) + "\")";
}

}  // namespace

const char* codec_name(Codec codec) {
  switch (codec) {
    case Codec::kFp32:
      return "fp32";
    case Codec::kFp16:
      return "fp16";
    case Codec::kInt8:
      return "int8";
    case Codec::kTopK1:
      return "topk1";
    case Codec::kTopK5:
      return "topk5";
    case Codec::kTopK10:
      return "topk10";
    case Codec::kTopK25:
      return "topk25";
  }
  return "?";
}

std::optional<Codec> codec_from_name(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "fp32") return Codec::kFp32;
  if (lower == "fp16") return Codec::kFp16;
  if (lower == "int8") return Codec::kInt8;
  if (lower == "topk1") return Codec::kTopK1;
  if (lower == "topk5") return Codec::kTopK5;
  if (lower == "topk10") return Codec::kTopK10;
  if (lower == "topk25") return Codec::kTopK25;
  if (lower == "topk") return Codec::kTopK10;  // default sparsifier
  return std::nullopt;
}

const char* codec_valid_names() {
  return "fp32|fp16|int8|topk1|topk5|topk10|topk25|topk";
}

Codec codec_parse(std::string_view name, std::string_view context) {
  const auto parsed = codec_from_name(name);
  if (!parsed) {
    throw std::invalid_argument(std::string(context) + ": unknown codec \"" +
                                std::string(name) + "\" (valid: " +
                                codec_valid_names() + ")");
  }
  return *parsed;
}

bool codec_is_sparse(Codec codec) { return codec_topk_percent(codec) != 0; }

unsigned codec_topk_percent(Codec codec) {
  switch (codec) {
    case Codec::kTopK1:
      return 1;
    case Codec::kTopK5:
      return 5;
    case Codec::kTopK10:
      return 10;
    case Codec::kTopK25:
      return 25;
    default:
      return 0;
  }
}

std::size_t codec_kept_coords(std::size_t numel, Codec codec) {
  const unsigned pct = codec_topk_percent(codec);
  if (pct == 0) return numel;
  if (numel == 0) return 0;
  return std::max<std::size_t>(1, (numel * pct + 99) / 100);
}

std::vector<std::uint32_t> topk_select(const float* data, std::size_t n,
                                       std::size_t k) {
  AFL_PROF_SPAN("net.topk_select");
  k = std::min(k, n);
  std::vector<std::uint32_t> kept;
  if (k == 0) return kept;
  // The k-th largest key is the threshold: every key above it is kept, and
  // the remaining slots go to the lowest indices whose key equals it. That is
  // exactly the first k of the (key desc, index asc) order, found with one
  // partition and emitted in ascending order by one scan.
  std::uint32_t threshold = 0;
  std::size_t above = 0;  // keys above the threshold
  for (std::size_t i = 0; i < n; ++i) above += topk_key(data[i]) > threshold;
  if (above > k) {  // otherwise (a masked delta, say) 0 is the threshold
    std::vector<std::uint32_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = topk_key(data[i]);
    const auto kth = keys.begin() + static_cast<std::ptrdiff_t>(k - 1);
    std::nth_element(keys.begin(), kth, keys.end(), std::greater<>());
    threshold = *kth;
    above = static_cast<std::size_t>(std::count_if(
        keys.begin(), kth, [threshold](std::uint32_t key) { return key > threshold; }));
  }
  std::size_t ties = k - above;  // slots for keys equal to the threshold
  kept.reserve(k);
  for (std::size_t i = 0; i < n && kept.size() < k; ++i) {
    const std::uint32_t key = topk_key(data[i]);
    if (key > threshold) {
      kept.push_back(static_cast<std::uint32_t>(i));
    } else if (key == threshold && ties > 0) {
      --ties;
      kept.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return kept;
}

std::uint16_t float_to_half(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t exp = (f >> 23) & 0xFFu;
  std::uint32_t mant = f & 0x7FFFFFu;
  if (exp == 255) {  // inf / nan (nan keeps a payload bit set)
    return static_cast<std::uint16_t>(sign | 0x7C00u | (mant ? 0x200u : 0u));
  }
  const int half_exp = static_cast<int>(exp) - 127 + 15;
  if (half_exp >= 31) {  // overflow -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (half_exp <= 0) {  // subnormal half or zero
    if (half_exp < -10) return static_cast<std::uint16_t>(sign);
    mant |= 0x800000u;  // implicit leading 1
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - half_exp);
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  std::uint32_t half = sign | (static_cast<std::uint32_t>(half_exp) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  // Round to nearest even; a carry may overflow into the exponent, which
  // yields the correctly rounded next binade (or inf) by construction.
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exp = (half >> 10) & 0x1Fu;
  std::uint32_t mant = half & 0x3FFu;
  std::uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {  // subnormal: renormalize
      // mant = 1.f * 2^(10-shift) after the loop, and a subnormal half is
      // mant * 2^-24, so the value is 1.f * 2^(-14-shift).
      int shift = 0;
      while (!(mant & 0x400u)) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3FFu;
      f = sign | (static_cast<std::uint32_t>(127 - 14 - shift) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    f = sign | 0x7F800000u | (mant << 13);
  } else {
    f = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float v;
  std::memcpy(&v, &f, sizeof(v));
  return v;
}

std::size_t encoded_payload_size(std::size_t numel, Codec codec) {
  switch (codec) {
    case Codec::kFp32:
      return numel * 4;
    case Codec::kFp16:
      return numel * 2;
    case Codec::kInt8:
      return kInt8HeaderBytes + numel;
    case Codec::kTopK1:
    case Codec::kTopK5:
    case Codec::kTopK10:
    case Codec::kTopK25: {
      // Worst case: every index delta at the maximal varint width for a
      // 32-bit index (5 bytes) plus the f32 value. Real payloads are much
      // smaller — kept coordinates cluster, so deltas are short varints.
      const std::size_t k = codec_kept_coords(numel, codec);
      return varint_bytes(k) + k * (5 + 4);
    }
  }
  return 0;
}

std::size_t encode_tensor(const Tensor& t, Codec codec, std::vector<std::uint8_t>& out) {
  AFL_PROF_SPAN("net.encode");
  const std::size_t start = out.size();
  const float* data = t.data();
  const std::size_t n = t.numel();
  switch (codec) {
    case Codec::kFp32: {
      append_bytes(out, data, n * sizeof(float));
      break;
    }
    case Codec::kFp16: {
      // Sized write through a raw pointer: push_back's capacity check per
      // byte dominated this loop (codec encode is on the round hot path).
      const std::size_t base = out.size();
      out.resize(base + n * 2);
      std::uint8_t* dst = out.data() + base;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t h = float_to_half(data[i]);
        dst[2 * i] = static_cast<std::uint8_t>(h & 0xFFu);
        dst[2 * i + 1] = static_cast<std::uint8_t>(h >> 8);
      }
      break;
    }
    case Codec::kInt8: {
      float lo = 0.0f, hi = 0.0f;
      if (n > 0) {
        // Four independent min/max lanes break the loop-carried dependence
        // so the compiler can keep the range scan in vector registers.
        // Min/max re-association is exact: lo/hi (and thus every quantized
        // byte) are bit-identical to the sequential scan.
        float lo0 = data[0], lo1 = data[0], lo2 = data[0], lo3 = data[0];
        float hi0 = data[0], hi1 = data[0], hi2 = data[0], hi3 = data[0];
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
          lo0 = std::min(lo0, data[i]);
          hi0 = std::max(hi0, data[i]);
          lo1 = std::min(lo1, data[i + 1]);
          hi1 = std::max(hi1, data[i + 1]);
          lo2 = std::min(lo2, data[i + 2]);
          hi2 = std::max(hi2, data[i + 2]);
          lo3 = std::min(lo3, data[i + 3]);
          hi3 = std::max(hi3, data[i + 3]);
        }
        for (; i < n; ++i) {
          lo0 = std::min(lo0, data[i]);
          hi0 = std::max(hi0, data[i]);
        }
        lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
        hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
      }
      const float scale = (hi - lo) / 255.0f;
      append_f32(out, lo);
      append_f32(out, scale);
      const std::size_t base = out.size();
      out.resize(base + n);
      std::uint8_t* dst = out.data() + base;
      if (scale > 0.0f) {
        // The quantize kernel keeps the exact scalar math — nearbyint of the
        // true division, then clamp — so vector and scalar codegen agree on
        // every byte; only the store path (sized buffer, no push_back) and
        // the hoisted scale test changed.
        for (std::size_t i = 0; i < n; ++i) {
          float q = std::nearbyint((data[i] - lo) / scale);
          q = std::clamp(q, 0.0f, 255.0f);
          dst[i] = static_cast<std::uint8_t>(q);
        }
      } else {
        std::memset(dst, 0, n);  // constant tensor: every code is 0
      }
      break;
    }
    case Codec::kTopK1:
    case Codec::kTopK5:
    case Codec::kTopK10:
    case Codec::kTopK25: {
      // Sparse payload: varint k, then k (index varint-delta, f32 value)
      // pairs in ascending index order. Exactly codec_kept_coords(n) entries
      // are always emitted — even zero-valued ones — so the payload size is
      // a pure function of (content, shape) and decode can cross-check k.
      AFL_PROF_SPAN("net.sparse_encode");  // wraps the nested net.topk_select
      const std::vector<std::uint32_t> kept =
          topk_select(data, n, codec_kept_coords(n, codec));
      varint_append(kept.size(), out);
      std::uint32_t prev = 0;
      for (std::size_t i = 0; i < kept.size(); ++i) {
        varint_append(i == 0 ? kept[i] : kept[i] - prev, out);
        prev = kept[i];
        append_f32(out, data[kept[i]]);
      }
      break;
    }
  }
  return out.size() - start;
}

Tensor decode_tensor(const std::uint8_t* data, std::size_t size, const Shape& shape,
                     Codec codec, std::string_view name) {
  AFL_PROF_SPAN("net.decode");
  const std::size_t n = shape_numel(shape);
  if (codec_is_sparse(codec)) {
    // Sparse payloads are self-describing: parse and validate the index
    // stream instead of a fixed size check. Dropped coordinates are zero.
    AFL_PROF_SPAN("net.sparse_decode");
    std::size_t cur = 0;
    const std::uint64_t k = varint_read(data, size, &cur, "sparse count");
    if (k != codec_kept_coords(n, codec)) {
      throw CodecError("codec: sparse payload keeps " + std::to_string(k) +
                       " coords, expected " +
                       std::to_string(codec_kept_coords(n, codec)) +
                       " for shape " + shape_to_string(shape) + " under " +
                       codec_name(codec) + tensor_context(name));
    }
    // Each entry takes at least a one-byte index delta and a four-byte value,
    // so a payload too short for k of them is refused before the tensor is
    // allocated.
    if (k > (size - cur) / 5) {
      throw CodecError("codec: sparse payload of " + std::to_string(size) +
                       " bytes cannot hold " + std::to_string(k) + " coords" +
                       tensor_context(name));
    }
    Tensor t{Shape(shape)};
    float* out = t.data();
    std::memset(out, 0, n * sizeof(float));
    std::uint64_t idx = 0;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t delta = varint_read(data, size, &cur, "sparse index");
      if (i > 0 && delta == 0) {
        throw CodecError("codec: non-increasing sparse index" +
                         tensor_context(name));
      }
      idx = i == 0 ? delta : idx + delta;
      if (idx >= n) {
        throw CodecError("codec: sparse index " + std::to_string(idx) +
                         " out of range for shape " + shape_to_string(shape) +
                         tensor_context(name));
      }
      if (cur + 4 > size) {
        throw CodecError("codec: truncated sparse value" + tensor_context(name));
      }
      out[idx] = read_f32(data + cur);
      cur += 4;
    }
    if (cur != size) {
      throw CodecError("codec: trailing bytes after sparse payload" +
                       tensor_context(name));
    }
    return t;
  }
  if (size != encoded_payload_size(n, codec)) {
    throw CodecError("codec: payload size " + std::to_string(size) +
                     " does not match shape " + shape_to_string(shape) + " under " +
                     codec_name(codec) + tensor_context(name));
  }
  Tensor t{Shape(shape)};
  float* out = t.data();
  switch (codec) {
    case Codec::kFp32: {
      std::memcpy(out, data, n * sizeof(float));
      break;
    }
    case Codec::kFp16: {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t h = static_cast<std::uint16_t>(
            data[2 * i] | (static_cast<std::uint16_t>(data[2 * i + 1]) << 8));
        out[i] = half_to_float(h);
      }
      break;
    }
    case Codec::kInt8: {
      const float lo = read_f32(data);
      const float scale = read_f32(data + 4);
      const std::uint8_t* codes = data + kInt8HeaderBytes;
      // Independent fused ops per element; 4-wide blocking matches the
      // encoder's lane count and keeps the u8->f32 widening vectorized.
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        out[i] = lo + static_cast<float>(codes[i]) * scale;
        out[i + 1] = lo + static_cast<float>(codes[i + 1]) * scale;
        out[i + 2] = lo + static_cast<float>(codes[i + 2]) * scale;
        out[i + 3] = lo + static_cast<float>(codes[i + 3]) * scale;
      }
      for (; i < n; ++i) {
        out[i] = lo + static_cast<float>(codes[i]) * scale;
      }
      break;
    }
    case Codec::kTopK1:
    case Codec::kTopK5:
    case Codec::kTopK10:
    case Codec::kTopK25:
      // Unreachable: the sparse family decodes in the early-return branch
      // above; listed so -Wswitch flags any future codec addition.
      throw CodecError("codec: sparse codec reached dense decode path" +
                       tensor_context(name));
  }
  return t;
}

double codec_error_bound(Codec codec, float lo, float hi) {
  switch (codec) {
    case Codec::kFp32:
      return 0.0;
    case Codec::kFp16: {
      // Relative error of half rounding is 2^-11; bound by the largest
      // magnitude in range (plus the subnormal quantum for tiny values).
      const double max_abs = std::max(std::fabs(static_cast<double>(lo)),
                                      std::fabs(static_cast<double>(hi)));
      return max_abs * 0x1p-11 + 0x1p-24;
    }
    case Codec::kInt8: {
      const double scale = (static_cast<double>(hi) - static_cast<double>(lo)) / 255.0;
      // Half a quantization step, padded for the f32 arithmetic of the
      // scale/offset reconstruction.
      return scale * 0.5 + std::max(std::fabs(static_cast<double>(lo)),
                                    std::fabs(static_cast<double>(hi))) *
                               1e-6;
    }
    case Codec::kTopK1:
    case Codec::kTopK5:
    case Codec::kTopK10:
    case Codec::kTopK25:
      // A dropped coordinate decodes to zero, so the per-scalar error can be
      // the full magnitude of any in-range value. Kept coordinates are exact.
      return std::max(std::fabs(static_cast<double>(lo)),
                      std::fabs(static_cast<double>(hi)));
  }
  return 0.0;
}

}  // namespace afl::net
