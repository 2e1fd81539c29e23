// Property-test harness for every wire codec (src/net/codec.hpp): hand-rolled
// random tensor generators drive round-trip, error-bound, and size-contract
// invariants over thousands of tensors per codec — the randomized counterpart
// to net_test.cpp's example-based cases (docs/NET.md, docs/COMPRESSION.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <iterator>
#include <set>
#include <vector>

#include "net/codec.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

using net::Codec;

constexpr Codec kAllCodecs[] = {Codec::kFp32,  Codec::kFp16,  Codec::kInt8,
                                Codec::kTopK1, Codec::kTopK5, Codec::kTopK10,
                                Codec::kTopK25};

// Hand-rolled generator: random rank/dims plus a per-tensor value profile —
// gaussians, wide uniform ranges, mostly-zero sparse data, constant blocks,
// and all-zero tensors each stress a different codec path (int8's degenerate
// scale, top-k's tie-breaking, fp16 rounding at large magnitudes).
Tensor random_tensor(Rng& rng) {
  const std::size_t rank = 1 + rng.uniform_index(4);
  Shape shape(rank);
  for (auto& d : shape) d = 1 + rng.uniform_index(7);
  Tensor t(shape);
  switch (rng.uniform_index(5)) {
    case 0:  // standard gaussian
      for (std::size_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.normal());
      }
      break;
    case 1: {  // uniform over a random wide range
      const double span = std::pow(10.0, rng.uniform(-3.0, 3.0));
      for (std::size_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<float>(rng.uniform(-span, span));
      }
      break;
    }
    case 2:  // mostly zeros — the sparse codecs' home turf
      for (std::size_t i = 0; i < t.numel(); ++i) {
        t[i] = rng.uniform() < 0.15 ? static_cast<float>(rng.normal()) : 0.0f;
      }
      break;
    case 3: {  // constant block: int8 scale == 0, top-k all-tied
      const float v = static_cast<float>(rng.uniform(-2.0, 2.0));
      for (std::size_t i = 0; i < t.numel(); ++i) t[i] = v;
      break;
    }
    default:  // exact zeros
      break;
  }
  return t;
}

class CodecRoundTripProperty : public ::testing::TestWithParam<int> {};

// decode(encode(t)) preserves shape, respects the documented error bound,
// and — for the sparse family — reproduces exactly the top-k coordinates
// bit-exact while zeroing the rest. ~500 tensors per (codec, param) pair,
// 3500 per param across the 7 codecs.
TEST_P(CodecRoundTripProperty, RoundTripWithinBound) {
  Rng rng(0xC0DEC000u + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 500; ++iter) {
    const Tensor t = random_tensor(rng);
    float lo = 0.0f, hi = 0.0f;
    for (std::size_t i = 0; i < t.numel(); ++i) {
      lo = std::min(lo, t[i]);
      hi = std::max(hi, t[i]);
    }
    for (const Codec codec : kAllCodecs) {
      std::vector<std::uint8_t> buf;
      const std::size_t appended = net::encode_tensor(t, codec, buf);
      ASSERT_EQ(appended, buf.size());
      // Size contract: what was written never exceeds the worst-case bound
      // the transport charges for.
      EXPECT_LE(appended, net::encoded_payload_size(t.numel(), codec));

      const Tensor back =
          net::decode_tensor(buf.data(), buf.size(), t.shape(), codec);
      ASSERT_TRUE(back.same_shape(t));
      const double bound = net::codec_error_bound(codec, lo, hi);
      for (std::size_t i = 0; i < t.numel(); ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(back[i]) -
                            static_cast<double>(t[i])),
                  bound + 1e-12)
            << net::codec_name(codec) << " elem " << i;
      }
      if (codec == Codec::kFp32) {
        for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
      }
      if (net::codec_is_sparse(codec)) {
        const std::size_t k = net::codec_kept_coords(t.numel(), codec);
        const std::vector<std::uint32_t> kept =
            net::topk_select(t.data(), t.numel(), k);
        const std::set<std::uint32_t> kept_set(kept.begin(), kept.end());
        ASSERT_EQ(kept_set.size(), k);
        for (std::size_t i = 0; i < t.numel(); ++i) {
          if (kept_set.count(static_cast<std::uint32_t>(i)) != 0) {
            EXPECT_EQ(back[i], t[i]) << "kept coord " << i;
          } else {
            EXPECT_EQ(back[i], 0.0f) << "dropped coord " << i;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTensors, CodecRoundTripProperty,
                         ::testing::Range(0, 4));

// Determinism: encoding the same tensor twice yields identical bytes, and
// top-k selection is a pure function of the data (same indices every call).
TEST(CodecDeterminismProperty, EncodeAndSelectArePure) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const Tensor t = random_tensor(rng);
    for (const Codec codec : kAllCodecs) {
      std::vector<std::uint8_t> a, b;
      net::encode_tensor(t, codec, a);
      net::encode_tensor(t, codec, b);
      EXPECT_EQ(a, b) << net::codec_name(codec);
    }
    const std::size_t k = net::codec_kept_coords(t.numel(), Codec::kTopK10);
    EXPECT_EQ(net::topk_select(t.data(), t.numel(), k),
              net::topk_select(t.data(), t.numel(), k));
  }
}

// topk_select invariants on random data: sorted ascending, unique, in range,
// and no dropped coordinate has strictly larger magnitude than a kept one.
TEST(TopKSelectProperty, KeepsTheLargestMagnitudes) {
  Rng rng(1234);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(256);
    std::vector<float> data(n);
    for (auto& v : data) v = static_cast<float>(rng.normal());
    const std::size_t k = 1 + rng.uniform_index(n);
    const std::vector<std::uint32_t> kept = net::topk_select(data.data(), n, k);
    ASSERT_EQ(kept.size(), k);
    float min_kept = std::numeric_limits<float>::infinity();
    std::set<std::uint32_t> kept_set;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(kept[i - 1], kept[i]);
      }
      ASSERT_LT(kept[i], n);
      kept_set.insert(kept[i]);
      min_kept = std::min(min_kept, std::fabs(data[kept[i]]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (kept_set.count(static_cast<std::uint32_t>(i)) == 0) {
        EXPECT_LE(std::fabs(data[i]), min_kept) << "dropped " << i;
      }
    }
  }
}

// The specification topk_select implements, computed the slow way: sort all
// indices by (magnitude desc with NaN as +inf, index asc), take k, and
// return them ascending.
std::vector<std::uint32_t> naive_topk(const std::vector<float>& data, std::size_t k) {
  const auto magnitude = [&data](std::uint32_t i) {
    return std::isnan(data[i]) ? std::numeric_limits<float>::infinity()
                               : std::fabs(data[i]);
  };
  std::vector<std::uint32_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<std::uint32_t>(i);
  std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (magnitude(a) != magnitude(b)) return magnitude(a) > magnitude(b);
    return a < b;
  });
  idx.resize(std::min(k, idx.size()));
  std::sort(idx.begin(), idx.end());
  return idx;
}

class TopKMatchesReference : public ::testing::TestWithParam<int> {};

// topk_select against naive_topk on vectors drawn from a small alphabet, so
// ties are common: {0, -0, ±1, ±2, ±inf, NaN} plus normals. Every other
// vector is a masked delta (at most k nonzeros), the input shape the sparse
// encoder sees after Compressor::encode_update.
TEST_P(TopKMatchesReference, SameIndicesOnTieHeavyInputs) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float alphabet[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.0f, -2.0f,
                            kInf, -kInf, std::numeric_limits<float>::quiet_NaN()};
  Rng rng(0x70F0u + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t n = rng.uniform_index(301);
    std::vector<float> data(n);
    for (auto& v : data) {
      v = rng.uniform() < 0.8 ? alphabet[rng.uniform_index(std::size(alphabet))]
                              : static_cast<float>(rng.normal());
    }
    const std::size_t ks[] = {0, 1, rng.uniform_index(n + 1), n == 0 ? 0 : n - 1,
                              n, n + 3};
    for (const std::size_t k : ks) {
      std::vector<float> input = data;
      if (iter % 2 == 1) {  // mask down to at most k nonzeros
        std::size_t nonzero = 0;
        for (auto& v : input) {
          if (v == 0.0f) continue;
          if (nonzero < k && rng.uniform() < 0.7) {
            ++nonzero;
          } else {
            v = 0.0f;
          }
        }
      }
      EXPECT_EQ(net::topk_select(input.data(), n, k), naive_topk(input, k))
          << "n " << n << " k " << k << " iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKMatchesReference, ::testing::Range(0, 4));

}  // namespace
}  // namespace afl
