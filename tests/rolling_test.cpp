// FedRolex*'s rolled frame (prune/rolling.hpp): the round-r channel window
// of the rolling scheme is the prefix of the global rolled left by r. The
// window gather and the scatter fold that FedRolex* ran before it became
// HeteroFL on a rolled global are kept here as references.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/zoo.hpp"
#include "core/baselines.hpp"
#include "data/federated.hpp"
#include "fl/aggregate.hpp"
#include "prune/rolling.hpp"
#include "prune/width_prune.hpp"
#include "sim/device.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

// ---------------------------------------------------------------------------
// References: the rolling window as explicit index sets
// ---------------------------------------------------------------------------

/// Unit j keeps channels {(round + i) mod width_j : i < scaled_width}.
struct RollingPlan {
  std::vector<std::vector<std::size_t>> unit_channels;
};

RollingPlan make_rolling_plan(const ArchSpec& spec, double ratio, std::size_t round) {
  RollingPlan plan;
  for (const Unit& u : spec.units) {
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < scaled_width(u.out_c, ratio); ++i) {
      set.push_back((round + i) % u.out_c);
    }
    plan.unit_channels.push_back(std::move(set));
  }
  return plan;
}

/// Rows (dim 0) and columns (dim 1) of a global tensor a client tensor maps
/// to; an empty set is the full dimension.
struct DimSets {
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
};

std::map<std::string, DimSets> index_map(const ArchSpec& spec, const RollingPlan& plan) {
  std::map<std::string, DimSets> sets;
  std::size_t h = spec.in_h, w = spec.in_w;
  bool spatial = true;
  std::vector<std::size_t> in_set;
  // A flattened [C, H, W] input: each kept channel is a block of H·W features.
  const auto expand = [&](const std::vector<std::size_t>& channels) {
    if (!spatial || spec.gap_before_classifier || channels.empty()) return channels;
    std::vector<std::size_t> out;
    for (std::size_t c : channels) {
      for (std::size_t s = 0; s < h * w; ++s) out.push_back(c * h * w + s);
    }
    return out;
  };
  for (std::size_t j = 0; j < spec.num_units(); ++j) {
    const Unit& u = spec.units[j];
    const std::string name = ArchSpec::unit_name(j + 1);
    const std::vector<std::size_t>& out_set = plan.unit_channels[j];
    if (u.kind == UnitKind::kConv) {
      sets[name + ".w"] = {out_set, in_set};
      h = (h + 2 * u.pad - u.kernel) / u.stride + 1;
      w = (w + 2 * u.pad - u.kernel) / u.stride + 1;
      if (u.maxpool_after) {
        h /= 2;
        w /= 2;
      }
    } else {
      sets[name + ".w"] = {out_set, expand(in_set)};
      spatial = false;
    }
    sets[name + ".b"] = {out_set, {}};
    in_set = out_set;
  }
  sets["cls.w"] = {{}, expand(in_set)};
  sets["cls.b"] = {{}, {}};
  return sets;
}

/// Calls f(client offset, global offset) for every element a client tensor
/// of `client_shape` maps to in the global tensor `g`.
template <typename F>
void for_each_mapped(const Tensor& g, const Shape& client_shape, const DimSets& ds, F&& f) {
  std::size_t tail = 1;
  for (std::size_t d = 2; d < g.rank(); ++d) tail *= g.shape()[d];
  const std::size_t cols = g.rank() >= 2 ? client_shape[1] : 1;
  const std::size_t g_cols = g.rank() >= 2 ? g.shape()[1] : 1;
  for (std::size_t r = 0; r < client_shape[0]; ++r) {
    const std::size_t gr = ds.rows.empty() ? r : ds.rows[r];
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t gc = ds.cols.empty() ? c : ds.cols[c];
      for (std::size_t k = 0; k < tail; ++k) {
        f((r * cols + c) * tail + k, (gr * g_cols + gc) * tail + k);
      }
    }
  }
}

/// The window gather.
ParamSet rolling_extract(const ParamSet& global, const ArchSpec& spec, const RollingPlan& plan) {
  ParamSet out;
  for (const auto& [name, ds] : index_map(spec, plan)) {
    const Tensor& g = global.at(name);
    Shape shape = g.shape();
    if (!ds.rows.empty()) shape[0] = ds.rows.size();
    if (!ds.cols.empty()) shape[1] = ds.cols.size();
    Tensor t(shape);
    for_each_mapped(g, shape, ds, [&](std::size_t i, std::size_t gi) { t[i] = g[gi]; });
    out.emplace(name, std::move(t));
  }
  return out;
}

struct RollingUpdate {
  RollingPlan plan;
  ParamSet params;
  std::size_t data_size = 0;
};

/// The scatter fold in double precision: covered elements become the
/// data-weighted mean of the covering clients, others keep their value.
ParamSet rolling_aggregate(const ParamSet& global, const ArchSpec& spec,
                           const std::vector<RollingUpdate>& updates) {
  ParamSet out;
  for (const auto& [name, g] : global) {
    std::vector<double> acc(g.numel(), 0.0), cover(g.numel(), 0.0);
    for (const RollingUpdate& u : updates) {
      const Tensor& t = u.params.at(name);
      const double weight = static_cast<double>(u.data_size);
      for_each_mapped(g, t.shape(), index_map(spec, u.plan).at(name),
                      [&](std::size_t i, std::size_t gi) {
                        acc[gi] += static_cast<double>(t[i]) * weight;
                        cover[gi] += weight;
                      });
    }
    Tensor t(g.shape());
    for (std::size_t i = 0; i < g.numel(); ++i) {
      t[i] = cover[i] > 0.0 ? static_cast<float>(acc[i] / cover[i]) : g[i];
    }
    out.emplace(name, std::move(t));
  }
  return out;
}

ParamSet random_global(const ArchSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  return build_full_model(spec, &rng).export_params();
}

/// `global` rolled left by `steps`, one step at a time as FedRolex* rolls.
ParamSet rolled(ParamSet global, const ArchSpec& spec, std::size_t steps) {
  for (std::size_t i = 0; i < steps; ++i) roll_channels(global, spec, 1);
  return global;
}

// ---------------------------------------------------------------------------
// The rolled frame
// ---------------------------------------------------------------------------

TEST(RollingPlan, Round0IsPrefix) {
  // Round 0's window is the prefix: rolling by 0 (or a whole width) changes
  // nothing.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 1);
  ParamSet same = global;
  roll_channels(same, spec, 0);
  EXPECT_EQ(max_abs_diff(same, global), 0.0);
  roll_channels(same, spec, 16 * 32 * 64);  // a multiple of every width
  EXPECT_EQ(max_abs_diff(same, global), 0.0);
}

TEST(RollingPlan, WindowWrapsAround) {
  // Unit 1 has 16 channels; at round 14 with ratio 0.5 (keep 8) the window
  // is {14, 15, 0, 1, 2, 3, 4, 5}: the rolled global's first 8 biases.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  ParamSet global = random_global(spec, 2);
  Tensor& bias = global.at("u1.b");
  for (std::size_t c = 0; c < bias.numel(); ++c) bias[c] = static_cast<float>(c);
  const ParamSet r14 = rolled(global, spec, 14);
  const float want[8] = {14, 15, 0, 1, 2, 3, 4, 5};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r14.at("u1.b")[i], want[i]) << i;
}

TEST(RollingPlan, RejectsResidualArchs) {
  const ArchSpec spec = mini_resnet(10, 3, 12);
  ParamSet global = random_global(spec, 3);
  const ParamSet before = global;
  EXPECT_THROW(roll_channels(global, spec, 1), std::invalid_argument);
  EXPECT_EQ(max_abs_diff(global, before), 0.0);  // refused before touching it
}

TEST(RollingExtract, Round0MatchesPrefixPrune) {
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 1);
  const ParamSet gathered = rolling_extract(global, spec, make_rolling_plan(spec, 0.5, 0));
  const ParamSet prefixed = prune_params(global, spec, uniform_plan(spec, 0.5));
  ASSERT_TRUE(same_structure(gathered, prefixed));
  EXPECT_EQ(max_abs_diff(gathered, prefixed), 0.0);
}

TEST(RollingExtract, ShapesMatchUniformPlanModel) {
  // The rolled global keeps the global's shapes, so its prefix is a uniform
  // plan's parameter set.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 2);
  for (std::size_t round : {1u, 5u, 17u}) {
    const ParamSet frame = rolled(global, spec, round);
    ASSERT_TRUE(same_structure(frame, global)) << "round " << round;
    Model m = build_model(spec, uniform_plan(spec, 0.4));
    EXPECT_NO_THROW(m.import_params(prune_params(frame, spec, uniform_plan(spec, 0.4))))
        << "round " << round;
  }
}

TEST(RollingExtract, GathersExactGlobalValues) {
  // u2.w of the round-7 prefix: rows from unit 2's window, columns from
  // unit 1's, each a 3x3 kernel of the unrolled global.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 3);
  const std::size_t round = 7;
  const RollingPlan plan = make_rolling_plan(spec, 0.5, round);
  const ParamSet sub = prune_params(rolled(global, spec, round), spec, uniform_plan(spec, 0.5));
  const Tensor& g = global.at("u2.w");
  const Tensor& s = sub.at("u2.w");
  const auto& rows = plan.unit_channels[1];
  const auto& cols = plan.unit_channels[0];
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      for (std::size_t k = 0; k < 9; ++k) {
        EXPECT_EQ(s[(r * cols.size() + c) * 9 + k],
                  g[(rows[r] * g.shape()[1] + cols[c]) * 9 + k]);
      }
    }
  }
}

TEST(RollingFrame, PrefixEqualsWindowGatherAcrossWrapArounds) {
  // Every element of the rolled global's prefix equals the window gather,
  // at input sizes that flatten 1x1, 1x1 and 4x4 maps into the dense unit,
  // and at rounds that wrap each unit's window.
  for (const std::size_t hw : {std::size_t{8}, std::size_t{12}, std::size_t{32}}) {
    const ArchSpec spec = mini_vgg(10, 3, hw);
    const ParamSet global = random_global(spec, 100 + hw);
    ParamSet frame = global;
    std::size_t at = 0;
    for (const std::size_t round : {0u, 1u, 5u, 14u, 15u, 16u, 31u, 33u, 63u, 64u, 100u, 257u}) {
      for (; at < round; ++at) roll_channels(frame, spec, 1);
      for (const double ratio : {1.0, 0.66, 0.5, 0.4}) {
        const ParamSet want = rolling_extract(global, spec, make_rolling_plan(spec, ratio, round));
        const ParamSet got = prune_params(frame, spec, uniform_plan(spec, ratio));
        ASSERT_TRUE(same_structure(want, got));
        EXPECT_EQ(max_abs_diff(want, got), 0.0)
            << hw << " px, round " << round << ", ratio " << ratio;
      }
    }
  }
}

TEST(RollingFrame, RollingBackUndoesARoll) {
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 4);
  for (const long long r : {1LL, 7LL, 16LL, 33LL, 257LL}) {
    ParamSet frame = global;
    roll_channels(frame, spec, r);
    EXPECT_GT(max_abs_diff(frame, global), 0.0) << r;
    roll_channels(frame, spec, -r);
    EXPECT_EQ(max_abs_diff(frame, global), 0.0) << r;
  }
  // A roll by r is r rolls by one.
  ParamSet once = global;
  roll_channels(once, spec, 21);
  EXPECT_EQ(max_abs_diff(once, rolled(global, spec, 21)), 0.0);
}

TEST(RollingAggregate, IdentityWhenUnchanged) {
  // Clients that return their windows unchanged leave the global as it was.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet global = random_global(spec, 4);
  const ParamSet frame = rolled(global, spec, 9);
  std::vector<ClientUpdate> updates;
  for (const double ratio : {1.0, 0.66, 0.4}) {
    updates.push_back({prune_params(frame, spec, uniform_plan(spec, ratio)), 10});
  }
  EXPECT_EQ(max_abs_diff(hetero_aggregate(frame, updates), frame), 0.0);
}

TEST(RollingAggregate, UncoveredKeepOldValues) {
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const ParamSet frame = random_global(spec, 5);
  ParamSet sub = prune_params(frame, spec, uniform_plan(spec, 0.4));
  for (auto& [name, tensor] : sub) {
    for (std::size_t i = 0; i < tensor.numel(); ++i) tensor[i] += 1.0f;
  }
  const ParamSet next = hetero_aggregate(frame, {{std::move(sub), 5}});
  // Covered element (channel 0 of unit 1) moved by +1, uncovered (last
  // channel) untouched.
  const Tensor& g = frame.at("u1.w");
  const Tensor& n = next.at("u1.w");
  EXPECT_NEAR(n[0] - g[0], 1.0f, 1e-5);
  const std::size_t last = g.numel() - 1;  // channel 15 kernel tail
  EXPECT_EQ(n[last], g[last]);
}

TEST(RollingAggregate, FullCoverageOverRounds) {
  // Rolling the window one step per round trains every channel of every
  // unit within one width's worth of rounds (the property motivating
  // FedRolex): tag each channel's bias with its index and watch the prefix.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  ParamSet frame = random_global(spec, 6);
  std::vector<std::set<float>> seen(spec.num_units());
  std::size_t widest = 0;
  for (std::size_t j = 0; j < spec.num_units(); ++j) {
    Tensor& bias = frame.at(ArchSpec::unit_name(j + 1) + ".b");
    for (std::size_t c = 0; c < bias.numel(); ++c) bias[c] = static_cast<float>(c);
    widest = std::max(widest, spec.units[j].out_c);
  }
  for (std::size_t round = 1; round <= widest; ++round) {
    roll_channels(frame, spec, 1);
    for (std::size_t j = 0; j < spec.num_units(); ++j) {
      if (round > spec.units[j].out_c) continue;
      const Tensor& bias = frame.at(ArchSpec::unit_name(j + 1) + ".b");
      for (std::size_t i = 0; i < scaled_width(spec.units[j].out_c, 0.4); ++i) {
        seen[j].insert(bias[i]);
      }
    }
  }
  for (std::size_t j = 0; j < spec.num_units(); ++j) {
    EXPECT_EQ(seen[j].size(), spec.units[j].out_c) << "unit " << j + 1;
  }
}

TEST(RollingFrame, FoldInRolledFrameMatchesScatterFold) {
  // Algorithm 2 over perturbed client windows in the rolled frame, rolled
  // back, is the scatter fold over the same windows, bit for bit.
  const ArchSpec spec = mini_vgg(10, 3, 12);
  const double ratios[3] = {1.0, 0.66, 0.4};
  for (const std::size_t round : {1u, 14u, 33u, 100u}) {
    const ParamSet global = random_global(spec, 7 + round);
    const ParamSet frame = rolled(global, spec, round);
    Rng rng(round);
    std::vector<ClientUpdate> updates;
    std::vector<RollingUpdate> reference;
    for (std::size_t k = 0; k < 6; ++k) {
      const double ratio = ratios[k % 3];
      ParamSet sub = rolling_extract(global, spec, make_rolling_plan(spec, ratio, round));
      for (auto& [name, t] : sub) {
        for (std::size_t i = 0; i < t.numel(); ++i) {
          t[i] += static_cast<float>(rng.normal(0.0, 0.05));
        }
      }
      const std::size_t samples = 5 + k;
      reference.push_back({make_rolling_plan(spec, ratio, round), sub, samples});
      updates.push_back({std::move(sub), samples});
    }
    ParamSet got = hetero_aggregate(frame, updates);
    roll_channels(got, spec, -static_cast<long long>(round));
    EXPECT_EQ(max_abs_diff(got, rolling_aggregate(global, spec, reference)), 0.0)
        << "round " << round;
  }
}

TEST(RollingFl, RunsEndToEnd) {
  Rng rng(6);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  FederatedConfig fed;
  fed.num_clients = 8;
  fed.samples_per_client = 10;
  fed.test_samples = 40;
  FederatedDataset data = make_federated(task, fed, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  PoolConfig pool_cfg = PoolConfig::defaults_for(spec);
  ModelPool pool(spec, pool_cfg);
  std::vector<DeviceSim> devices =
      make_devices(pool, fed.num_clients, TierProportions{}, rng);
  FlRunConfig run;
  run.rounds = 2;
  run.clients_per_round = 4;
  run.local.epochs = 1;
  run.local.batch_size = 10;
  run.eval_every = 1;
  RollingFl alg(spec, pool_cfg, data, devices, run);
  RunResult r = alg.run();
  EXPECT_EQ(r.algorithm, "FedRolex*");
  EXPECT_EQ(r.curve.size(), 2u);
  EXPECT_GT(r.final_full_acc, 0.0);
  EXPECT_EQ(r.failed_trainings, 0u);
}

}  // namespace
}  // namespace afl
