// Property tests for the composable shard aggregation primitive
// (fl/shard_aggregator.hpp): merging per-shard partials must reproduce the
// single-shot hetero_aggregate over the union of updates EXACTLY — 0 ulp, not
// approximately — for any split and any fold order, because the coverage
// masses are fixed-point integers. This is the algebraic core behind the
// shard-count invariance of sharded runs (docs/HIERARCHY.md). The two
// conversions (quantize_mass, mass_to_double) are checked against the
// ldexp and libgcc conversions they replace, and partials that keep their
// storage across windows against a dense fold built from those.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/zoo.hpp"
#include "fl/aggregate.hpp"
#include "fl/shard_aggregator.hpp"
#include "prune/model_pool.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

/// The ldexp quantizer quantize_mass replaced: scale, saturate at ±2^126,
/// then libgcc's truncating double -> __int128 conversion.
MassInt ldexp_quantize_mass(double v) {
  const double scaled = std::ldexp(v, kMassFracBits);
  if (std::isnan(scaled)) return 0;
  constexpr double kLimit = 0x1p126;
  if (scaled >= kLimit) return static_cast<MassInt>(1) << 126;
  if (scaled <= -kLimit) return -(static_cast<MassInt>(1) << 126);
  return static_cast<MassInt>(scaled);
}

std::string hex128(MassInt m) {
  const auto u = static_cast<unsigned __int128>(m);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "0x%016llx%016llx",
                static_cast<unsigned long long>(u >> 64),
                static_cast<unsigned long long>(u));
  return buf;
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Counts inputs where quantize_mass differs from the ldexp reference and
/// describes the first one.
void expect_quantize_matches(const std::vector<double>& inputs) {
  std::size_t mismatches = 0;
  std::string first;
  for (double v : inputs) {
    const MassInt got = quantize_mass(v);
    const MassInt want = ldexp_quantize_mass(v);
    if (got == want) continue;
    if (mismatches++ == 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a (bits 0x%016llx)", v,
                    static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
      first = std::string(buf) + ": got " + hex128(got) + ", want " + hex128(want);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

/// Counts inputs where mass_to_double differs from static_cast<double>, bit
/// for bit, and describes the first one.
void expect_conversion_matches(const std::vector<MassInt>& inputs) {
  std::size_t mismatches = 0;
  std::string first;
  for (MassInt m : inputs) {
    const double got = mass_to_double(m);
    const double want = static_cast<double>(m);
    if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) continue;
    if (mismatches++ == 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), ": got %a, want %a", got, want);
      first = hex128(m) + buf;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

ParamSet random_global(Rng& rng) {
  ParamSet global;
  global["w1"] = Tensor::randn({6, 5}, rng);
  global["b1"] = Tensor::randn({6}, rng);
  global["w2"] = Tensor::randn({4, 6}, rng);
  global["deep"] = Tensor::randn({3, 2, 4}, rng);
  return global;
}

/// A random prefix-sliced update: each tensor truncated to a random prefix in
/// every dimension, and some names dropped entirely (depth pruning). Weights
/// exercise the async staleness-discount path: 1 / (1 + tau)^0.5.
ClientUpdate random_update(const ParamSet& global, Rng& rng) {
  ClientUpdate u;
  u.data_size = 1 + rng.uniform_index(40);
  const std::size_t tau = rng.uniform_index(5);
  u.weight = 1.0 / std::sqrt(1.0 + static_cast<double>(tau));
  for (const auto& [name, g] : global) {
    if (rng.uniform_index(5) == 0) continue;  // depth-pruned: name absent
    Shape sub = g.shape();
    for (std::size_t& d : sub) d = 1 + rng.uniform_index(d);
    u.params[name] = Tensor::randn(sub, rng);
  }
  return u;
}

std::vector<ClientUpdate> random_updates(const ParamSet& global, Rng& rng,
                                         std::size_t n) {
  std::vector<ClientUpdate> updates;
  updates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) updates.push_back(random_update(global, rng));
  return updates;
}

ShardPartial fold(const ParamSet& global, const std::vector<ClientUpdate>& updates) {
  ShardAggregator agg(global);
  for (const ClientUpdate& u : updates) agg.add(u);
  return agg.take_partial();
}

void expect_bit_identical(const ParamSet& a, const ParamSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, ta] : a) {
    const auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    ASSERT_EQ(ta.shape(), it->second.shape()) << name;
    for (std::size_t i = 0; i < ta.numel(); ++i) {
      // EXPECT_EQ on floats deliberately: the contract is exact equality.
      EXPECT_EQ(ta[i], it->second[i]) << name << "[" << i << "]";
    }
  }
}

TEST(ShardAggregator, MergeOfSplitEqualsCombinedFold) {
  // merge(fold(A), fold(B)) == fold(A ∪ B), exactly, for many random splits.
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const ParamSet global = random_global(rng);
    std::vector<ClientUpdate> updates = random_updates(global, rng, 12);
    const ParamSet combined = finalize_partial(fold(global, updates), global);

    const std::size_t cut = 1 + rng.uniform_index(updates.size() - 1);
    const std::vector<ClientUpdate> a(updates.begin(), updates.begin() + cut);
    const std::vector<ClientUpdate> b(updates.begin() + cut, updates.end());
    ShardPartial merged = fold(global, a);
    merge_partials(merged, fold(global, b));
    EXPECT_EQ(merged.updates, updates.size());
    expect_bit_identical(combined, finalize_partial(merged, global));
  }
}

TEST(ShardAggregator, MergeIsOrderAndGroupingInvariant) {
  Rng rng(19);
  const ParamSet global = random_global(rng);
  std::vector<ClientUpdate> updates = random_updates(global, rng, 15);
  const ParamSet combined = finalize_partial(fold(global, updates), global);

  // Three-way split, folded per shard in shuffled order, merged b-into-c
  // first: any association must land on the same bits.
  std::vector<ClientUpdate> a(updates.begin(), updates.begin() + 5);
  std::vector<ClientUpdate> b(updates.begin() + 5, updates.begin() + 9);
  std::vector<ClientUpdate> c(updates.begin() + 9, updates.end());
  std::reverse(a.begin(), a.end());
  std::reverse(c.begin(), c.end());
  ShardPartial bc = fold(global, c);
  merge_partials(bc, fold(global, b));
  ShardPartial merged = fold(global, a);
  merge_partials(merged, std::move(bc));
  expect_bit_identical(combined, finalize_partial(merged, global));
}

TEST(ShardAggregator, MergeMatchesHeteroAggregateWrapper) {
  // The public hetero_aggregate IS a single-shard fold, so sharded folds must
  // land on its exact result too.
  Rng rng(23);
  const ParamSet global = random_global(rng);
  const std::vector<ClientUpdate> updates = random_updates(global, rng, 10);
  const ParamSet reference = hetero_aggregate(global, updates);

  ShardPartial merged = fold(
      global, std::vector<ClientUpdate>(updates.begin(), updates.begin() + 4));
  merge_partials(merged, fold(global, std::vector<ClientUpdate>(
                                          updates.begin() + 4, updates.end())));
  expect_bit_identical(reference, finalize_partial(merged, global));
}

TEST(ShardAggregator, UncoveredElementsKeepGlobalValueExactly) {
  Rng rng(3);
  ParamSet global;
  global["w"] = Tensor::randn({4, 4}, rng);
  // One update covering only the top-left 2x2 prefix.
  ClientUpdate u;
  u.data_size = 5;
  u.params["w"] = Tensor::full({2, 2}, 3.5f);
  ShardAggregator agg(global);
  agg.add(u);
  const ParamSet out = finalize_partial(agg.take_partial(), global);
  const Tensor& w = out.at("w");
  const Tensor& g = global.at("w");
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (r < 2 && c < 2) {
        EXPECT_EQ(w.at({r, c}), 3.5f);
      } else {
        // Fallthrough is a copy, not a recomputation: exact bits.
        EXPECT_EQ(w.at({r, c}), g.at({r, c}));
      }
    }
  }
}

TEST(ShardAggregator, NoUpdatesFinalizesToGlobal) {
  Rng rng(11);
  const ParamSet global = random_global(rng);
  ShardAggregator agg(global);
  EXPECT_TRUE(agg.partial().empty());
  expect_bit_identical(global, finalize_partial(agg.partial(), global));
}

TEST(ShardAggregator, StalenessWeightsCarryThroughMerge) {
  // Two updates covering the same element with different staleness discounts:
  // the merged mean must equal the hand-computed discounted weighted mean.
  ParamSet global;
  global["w"] = Tensor::zeros({1});
  ClientUpdate fresh;
  fresh.data_size = 10;
  fresh.weight = 1.0;
  fresh.params["w"] = Tensor::full({1}, 2.0f);
  ClientUpdate stale;
  stale.data_size = 30;
  stale.weight = 0.5;  // 1 / (1 + 3)^0.5
  stale.params["w"] = Tensor::full({1}, 4.0f);

  ShardAggregator a(global);
  a.add(fresh);
  ShardAggregator b(global);
  b.add(stale);
  ShardPartial merged = a.take_partial();
  merge_partials(merged, b.take_partial());
  const ParamSet out = finalize_partial(merged, global);
  const double expect = (2.0 * 10.0 * 1.0 + 4.0 * 30.0 * 0.5) / (10.0 + 15.0);
  // The output tensor is float; the fixed-point mean is exact in double and
  // rounds once on the final store.
  EXPECT_EQ(out.at("w")[0], static_cast<float>(expect));
}

TEST(MassConversion, QuantizeMatchesLdexpOverEveryExponent) {
  Rng rng(41);
  constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  std::vector<double> inputs;
  // Every biased exponent, both signs, with the smallest, the largest and
  // random significands.
  for (std::uint64_t e = 0; e < 2048; ++e) {
    for (std::uint64_t sign = 0; sign < 2; ++sign) {
      for (int k = 0; k < 8; ++k) {
        const std::uint64_t frac = k == 0 ? 0 : k == 1 ? kFrac : rng.next_u64() & kFrac;
        inputs.push_back(from_bits(sign << 63 | e << 52 | frac));
      }
    }
  }
  // Random bit patterns: NaNs, infinities and subnormals included.
  for (int i = 0; i < 200000; ++i) inputs.push_back(from_bits(rng.next_u64()));
  // Values a fold sees: float parameters times data-size weights.
  for (int i = 0; i < 50000; ++i) {
    inputs.push_back(static_cast<double>(static_cast<float>(rng.normal())) *
                     static_cast<double>(1 + rng.uniform_index(1000)));
  }
  expect_quantize_matches(inputs);
}

TEST(MassConversion, QuantizeMatchesLdexpOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> inputs = {
      0.0, -0.0, kInf, -kInf,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000fffffffffffffULL), from_bits(0x800fffffffffffffULL),  // largest subnormals
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      0x1p-72, -0x1p-72, 0x1p-73, std::nextafter(0x1p-72, 0.0), std::nextafter(0x1p-72, 1.0)};
  // NaN payloads: quiet and signalling, both signs.
  for (std::uint64_t payload : {std::uint64_t{1}, std::uint64_t{0x8000000000000},
                                std::uint64_t{0xfffffffffffff}, std::uint64_t{0x123456789abc}}) {
    inputs.push_back(from_bits(0x7ff0000000000000ULL | payload));
    inputs.push_back(from_bits(0xfff0000000000000ULL | payload));
  }
  // |v| · 2^72 reaches the 2^126 saturation at |v| = 2^54: it and its
  // neighbours.
  inputs.push_back(0x1p54);
  inputs.push_back(-0x1p54);
  double below = 0x1p54;
  double above = 0x1p54;
  for (int k = 0; k < 4; ++k) {
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, kInf);
    for (double x : {below, -below, above, -above}) inputs.push_back(x);
  }
  // Shift amounts (exponent - 1003) 0, 63, 64, 73 and 74, with the smallest
  // and the largest significand.
  for (std::uint64_t shift : {0, 63, 64, 73, 74}) {
    for (std::uint64_t frac : {std::uint64_t{0}, (std::uint64_t{1} << 52) - 1}) {
      inputs.push_back(from_bits((1003 + shift) << 52 | frac));
      inputs.push_back(from_bits(std::uint64_t{1} << 63 | (1003 + shift) << 52 | frac));
    }
  }
  expect_quantize_matches(inputs);
  EXPECT_TRUE(quantize_mass(kInf) == static_cast<MassInt>(1) << 126);
  EXPECT_TRUE(quantize_mass(std::nan("")) == 0);
}

TEST(MassConversion, ToDoubleMatchesStaticCastAtEveryBitLength) {
  using U128 = unsigned __int128;
  Rng rng(43);
  const auto random_u128 = [&] {
    return static_cast<U128>(rng.next_u64()) << 64 | rng.next_u64();
  };
  std::vector<MassInt> inputs = {0, 1, -1};
  // Every bit length 0..127, both signs: the power of two, all ones, and
  // random bits below the leading one.
  for (int len = 1; len <= 127; ++len) {
    const U128 top = static_cast<U128>(1) << (len - 1);
    const U128 below = top - 1;
    for (U128 u : {top, top | below, top | (random_u128() & below), top | (random_u128() & below)}) {
      inputs.push_back(static_cast<MassInt>(u));
      inputs.push_back(-static_cast<MassInt>(u));
    }
  }
  // Exact ties at the 53-bit point (round bit set, nothing below), for odd
  // and even significands, then the same with set bits below the round bit:
  // only one in the lowest bit, so the sticky bit must survive the drop to
  // 64 bits.
  for (int len = 55; len <= 127; ++len) {
    const int round_bit = len - 54;
    for (int k = 0; k < 4; ++k) {
      const U128 significand = (static_cast<U128>(1) << 52) | (rng.next_u64() >> 12);
      const U128 odd = significand | 1;
      const U128 even = significand & ~static_cast<U128>(1);
      for (U128 sig : {odd, even}) {
        const U128 tie = sig << (round_bit + 1) | static_cast<U128>(1) << round_bit;
        for (U128 u : {tie, tie | 1, tie | (random_u128() & ((static_cast<U128>(1) << round_bit) - 1))}) {
          inputs.push_back(static_cast<MassInt>(u));
          inputs.push_back(-static_cast<MassInt>(u));
        }
      }
    }
  }
  // Around 2^64, and the extremes.
  const MassInt two64 = static_cast<MassInt>(1) << 64;
  for (MassInt m : {two64 - 1, two64, two64 + 1}) {
    inputs.push_back(m);
    inputs.push_back(-m);
  }
  const MassInt max = static_cast<MassInt>(~static_cast<U128>(0) >> 1);
  inputs.push_back(max);
  inputs.push_back(-max);
  inputs.push_back(-max - 1);  // the most negative value
  for (int i = 0; i < 100000; ++i) inputs.push_back(static_cast<MassInt>(random_u128()));
  expect_conversion_matches(inputs);
}

/// The dense fold the extent-tracking aggregator replaced, kept as an oracle:
/// every element of every update one at a time, the ldexp quantizer, and
/// libgcc's conversions back.
ParamSet dense_reference_fold(const ParamSet& global, const std::vector<ClientUpdate>& updates) {
  std::map<std::string, std::pair<std::vector<MassInt>, std::vector<MassInt>>> mass;
  for (const auto& [name, g] : global) {
    mass[name] = {std::vector<MassInt>(g.numel(), 0), std::vector<MassInt>(g.numel(), 0)};
  }
  for (const ClientUpdate& u : updates) {
    const double weight = static_cast<double>(u.data_size) * u.weight;
    const MassInt wq = ldexp_quantize_mass(weight);
    for (const auto& [name, t] : u.params) {
      const Shape& gs = global.at(name).shape();
      const Shape& ts = t.shape();
      auto& [value, w] = mass.at(name);
      for (std::size_t i = 0; i < t.numel(); ++i) {
        std::size_t rest = i;
        std::size_t offset = 0;
        std::size_t stride = 1;
        for (std::size_t d = ts.size(); d-- > 0;) {
          offset += rest % ts[d] * stride;
          rest /= ts[d];
          stride *= gs[d];
        }
        value[offset] += ldexp_quantize_mass(static_cast<double>(t[i]) * weight);
        w[offset] += wq;
      }
    }
  }
  ParamSet out;
  for (const auto& [name, g] : global) {
    const auto& [value, w] = mass.at(name);
    Tensor t(g.shape());
    for (std::size_t i = 0; i < g.numel(); ++i) {
      t[i] = w[i] > 0 ? static_cast<float>(static_cast<double>(value[i]) /
                                           static_cast<double>(w[i]))
                      : g[i];
    }
    out.emplace(name, std::move(t));
  }
  return out;
}

/// Every mass element is zero, outside the extents too, and so are the
/// extents.
void expect_all_zero(const ShardPartial& partial, const char* what) {
  EXPECT_EQ(partial.updates, 0u) << what;
  for (const auto& [name, mass] : partial.tensors) {
    const auto zero = [](MassInt m) { return m == 0; };
    EXPECT_TRUE(std::all_of(mass.value.begin(), mass.value.end(), zero)) << what << " " << name;
    EXPECT_TRUE(std::all_of(mass.weight.begin(), mass.weight.end(), zero)) << what << " " << name;
    EXPECT_EQ(mass.extent, Shape(mass.dims.size(), 0)) << what << " " << name;
  }
}

/// Updates shaped like pool entry `label`, with random values.
std::vector<ClientUpdate> level_updates(const ModelPool& pool, const ParamSet& global,
                                        const std::string& label, Rng& rng) {
  std::size_t index = 0;
  while (pool.entry(index).label() != label) ++index;
  std::vector<ClientUpdate> updates(2 + rng.uniform_index(3));
  for (ClientUpdate& u : updates) {
    u.data_size = 1 + rng.uniform_index(50);
    u.weight = 1.0 / std::sqrt(1.0 + static_cast<double>(rng.uniform_index(4)));
    for (auto& [name, t] : pool.split(global, index)) u.params[name] = Tensor::randn(t.shape(), rng);
  }
  return updates;
}

/// Random prefix updates: absent tensors, zero-size dimensions and full
/// shapes.
std::vector<ClientUpdate> prefix_updates(const ParamSet& global, Rng& rng) {
  std::vector<ClientUpdate> updates(1 + rng.uniform_index(5));
  for (ClientUpdate& u : updates) {
    u.data_size = 1 + rng.uniform_index(50);
    u.weight = 1.0 / std::sqrt(1.0 + static_cast<double>(rng.uniform_index(4)));
    for (const auto& [name, g] : global) {
      if (rng.uniform_index(5) == 0) continue;  // absent
      Shape sub = g.shape();
      const std::uint64_t kind = rng.uniform_index(4);
      if (kind != 0) {  // kind 0 keeps the full shape
        for (std::size_t& d : sub) d = 1 + rng.uniform_index(d);
      }
      if (kind == 1) sub[rng.uniform_index(sub.size())] = 0;
      u.params[name] = Tensor::randn(sub, rng);
    }
  }
  return updates;
}

TEST(ShardAggregator, ReusedStorageMatchesFreshDenseFoldEveryWindow) {
  // Two shards and a root that live across windows, as in a sharded run:
  // the shards fold, the root merges them by reference (or takes one), and
  // everything is cleared in place. Every window must finalize to the dense
  // fold of its own updates, and every clear must leave all-zero storage,
  // even when the next window covers less (L1, then S3, then M2).
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ModelPool pool(spec, PoolConfig::defaults_for(spec));
  Rng rng(53);
  const ParamSet global = pool.build(pool.largest_index(), &rng).export_params();
  ShardAggregator a(global);
  ShardAggregator b(global);
  ShardPartial root(global);
  const std::vector<std::string> levels = {"L1", "S3", "M2"};
  for (std::size_t window = 0; window < 12; ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    std::vector<ClientUpdate> updates = window < levels.size()
                                            ? level_updates(pool, global, levels[window], rng)
                                            : prefix_updates(global, rng);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      ShardAggregator& shard = i % 2 == 0 ? a : b;
      if (rng.uniform_index(2) == 0) {
        shard.add(updates[i]);
      } else {
        ClientUpdate copy = updates[i];
        shard.add(std::move(copy));
      }
    }
    if (window % 3 == 2) {
      a.merge(b.take_partial());
      expect_all_zero(b.partial(), "taken shard");
    } else {
      a.merge(b.partial());
      b.reset();
    }
    merge_partials(root, a.partial());
    a.reset();
    EXPECT_EQ(root.updates, updates.size());
    // The mass equals a fresh fold's, element for element, and each extent
    // is the per-dimension maximum of the nonempty shapes folded.
    ShardAggregator fresh(global);
    for (const ClientUpdate& u : updates) fresh.add(u);
    for (const auto& [name, mass] : root.tensors) {
      const ShardPartial::TensorMass& want = fresh.partial().tensors.at(name);
      EXPECT_TRUE(mass.value == want.value) << name;
      EXPECT_TRUE(mass.weight == want.weight) << name;
      Shape extent(mass.dims.size(), 0);
      for (const ClientUpdate& u : updates) {
        const auto it = u.params.find(name);
        if (it == u.params.end() || it->second.numel() == 0) continue;
        for (std::size_t d = 0; d < extent.size(); ++d) {
          extent[d] = std::max(extent[d], it->second.shape()[d]);
        }
      }
      EXPECT_EQ(mass.extent, extent) << name;
    }
    expect_bit_identical(dense_reference_fold(global, updates), finalize_partial(root, global));
    root.clear();
    expect_all_zero(root, "root");
    expect_all_zero(a.partial(), "shard a");
    expect_all_zero(b.partial(), "shard b");
  }
}

TEST(ShardAggregator, RvalueAddConsumesTheUpdate) {
  Rng rng(5);
  const ParamSet global = random_global(rng);
  ClientUpdate by_ref = random_update(global, rng);
  ClientUpdate by_move = by_ref;  // identical copy

  ShardAggregator ref_agg(global);
  ref_agg.add(by_ref);
  ShardAggregator move_agg(global);
  move_agg.add(std::move(by_move));

  EXPECT_FALSE(by_ref.params.empty());
  EXPECT_TRUE(by_move.params.empty());  // released, not just moved-from
  expect_bit_identical(finalize_partial(ref_agg.take_partial(), global),
                       finalize_partial(move_agg.take_partial(), global));
}

TEST(ShardAggregator, FedAvgModeMatchesWrapperAndValidates) {
  Rng rng(29);
  ParamSet global;
  global["w"] = Tensor::randn({3, 3}, rng);
  std::vector<ClientUpdate> updates;
  for (int i = 0; i < 4; ++i) {
    ClientUpdate u;
    u.data_size = 2 + static_cast<std::size_t>(i);
    u.params["w"] = Tensor::randn({3, 3}, rng);
    updates.push_back(std::move(u));
  }
  const ParamSet reference = fedavg_aggregate(global, updates);
  ShardAggregator agg(global, ShardAggregator::Mode::kFedAvg);
  for (const ClientUpdate& u : updates) agg.add(u);
  expect_bit_identical(reference, finalize_partial(agg.take_partial(), global));

  // Structural mismatch must throw, exactly like the classic wrapper.
  ClientUpdate bad;
  bad.data_size = 1;
  bad.params["w"] = Tensor::zeros({2, 3});
  ShardAggregator strict(global, ShardAggregator::Mode::kFedAvg);
  EXPECT_THROW(strict.add(bad), std::invalid_argument);
}

}  // namespace
}  // namespace afl
