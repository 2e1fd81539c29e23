// Property tests for the composable shard aggregation primitive
// (fl/shard_aggregator.hpp): merging per-shard partials must reproduce the
// single-shot hetero_aggregate over the union of updates EXACTLY — 0 ulp, not
// approximately — for any split and any fold order, because the coverage
// masses are fixed-point integers. This is the algebraic core behind the
// shard-count invariance of sharded runs (docs/HIERARCHY.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fl/aggregate.hpp"
#include "fl/shard_aggregator.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

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
