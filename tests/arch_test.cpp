#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/build.hpp"
#include "arch/stats.hpp"
#include "arch/zoo.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

// MiniVGG pools three times, so a plane below 8 pixels reaches a pool with a
// 1 x 1 plane (VGG16 pools five times); the parent built such a model and
// its forward pass crashed.
TEST(BuildModel, RejectsAnInputTooSmallForTheNetwork) {
  for (std::size_t hw : {3, 4, 5, 6, 7}) {
    SCOPED_TRACE(hw);
    EXPECT_THROW(build_full_model(mini_vgg(10, 3, hw)), std::invalid_argument);
  }
  EXPECT_THROW(build_full_model(vgg16(10, 3, 16)), std::invalid_argument);
  try {
    build_full_model(mini_vgg(10, 3, 4));
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mini_vgg"), std::string::npos) << what;
    EXPECT_NE(what.find("unit"), std::string::npos) << what;
    EXPECT_NE(what.find("1x1"), std::string::npos) << what;
  }
  Rng rng(8);
  Model model = build_full_model(mini_vgg(10, 3, 8), &rng);
  const Tensor logits = model.forward(Tensor::randn({2, 3, 8, 8}, rng), false);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));
}

TEST(WidthPlan, DeepPlanShape) {
  ArchSpec spec = mini_vgg();
  WidthPlan plan = deep_plan(spec, 0.4, 3);
  ASSERT_EQ(plan.size(), spec.num_units());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(plan[j], 1.0);
  for (std::size_t j = 3; j < plan.size(); ++j) EXPECT_DOUBLE_EQ(plan[j], 0.4);
}

TEST(WidthPlan, FullRatioIgnoresI) {
  ArchSpec spec = mini_vgg();
  WidthPlan plan = deep_plan(spec, 1.0, 0);
  for (double m : plan) EXPECT_DOUBLE_EQ(m, 1.0);
}

TEST(WidthPlan, UniformPlan) {
  ArchSpec spec = mini_resnet();
  WidthPlan plan = uniform_plan(spec, 0.66);
  for (double m : plan) EXPECT_DOUBLE_EQ(m, 0.66);
  EXPECT_TRUE(plan_is_valid(spec, plan));
}

TEST(WidthPlan, ValidityRejectsIncreasing) {
  ArchSpec spec = mini_vgg();
  WidthPlan plan(spec.num_units(), 1.0);
  plan[2] = 0.5;  // dips then rises
  EXPECT_FALSE(plan_is_valid(spec, plan));
  WidthPlan bad(spec.num_units(), 0.0);
  EXPECT_FALSE(plan_is_valid(spec, bad));
  WidthPlan wrong_size(spec.num_units() + 1, 1.0);
  EXPECT_FALSE(plan_is_valid(spec, wrong_size));
}

TEST(WidthPlan, Subplan) {
  ArchSpec spec = mini_vgg();
  WidthPlan big = deep_plan(spec, 0.66, 4);
  WidthPlan small = deep_plan(spec, 0.4, 3);
  EXPECT_TRUE(plan_is_subplan(small, big));
  EXPECT_FALSE(plan_is_subplan(big, small));
  // Larger I at smaller width is NOT a subplan of smaller I at bigger width.
  WidthPlan s_large_i = deep_plan(spec, 0.4, 5);
  WidthPlan m_small_i = deep_plan(spec, 0.66, 3);
  EXPECT_FALSE(plan_is_subplan(s_large_i, m_small_i));
}

TEST(ScaledWidth, RoundsAndClamps) {
  EXPECT_EQ(scaled_width(512, 0.66), 338u);
  EXPECT_EQ(scaled_width(512, 0.40), 205u);
  EXPECT_EQ(scaled_width(1, 0.01), 1u);  // never below 1
  EXPECT_EQ(scaled_width(64, 1.0), 64u);
}

TEST(ArchStats, Vgg16MatchesPaperTable1) {
  // Paper Table 1: VGG16 L1 has 33.65M params and 333.22M FLOPs at CIFAR
  // resolution. Our analytic count must land within 1%.
  ArchSpec spec = vgg16(10, 3, 32);
  const ModelStats s = arch_stats(spec);
  EXPECT_NEAR(static_cast<double>(s.params), 33.65e6, 0.01 * 33.65e6);
  EXPECT_NEAR(static_cast<double>(s.flops), 333.22e6, 0.01 * 333.22e6);
}

TEST(ArchStats, Vgg16PrunedSizesMatchPaper) {
  // M1 (r_w=0.66, I=8) = 16.81M (ratio 0.50); S1 (0.40, 8) = 8.39M (0.25).
  ArchSpec spec = vgg16(10, 3, 32);
  const double full = static_cast<double>(arch_stats(spec).params);
  const double m1 =
      static_cast<double>(arch_stats(spec, deep_plan(spec, 0.66, 8)).params);
  const double s1 =
      static_cast<double>(arch_stats(spec, deep_plan(spec, 0.40, 8)).params);
  EXPECT_NEAR(m1 / full, 0.50, 0.02);
  EXPECT_NEAR(s1 / full, 0.25, 0.02);
}

class StatsMatchModel
    : public ::testing::TestWithParam<std::tuple<int, double, std::size_t>> {};

TEST_P(StatsMatchModel, AnalyticEqualsMaterialized) {
  const auto [arch_id, r_w, I] = GetParam();
  ArchSpec spec;
  switch (arch_id) {
    case 0:
      spec = mini_vgg(10, 3, 16);
      break;
    case 1:
      spec = mini_resnet(10, 3, 16);
      break;
    default:
      spec = mini_mobilenet(10, 3, 16);
      break;
  }
  const WidthPlan plan = deep_plan(spec, r_w, I);
  Model m = build_model(spec, plan);
  EXPECT_EQ(arch_stats(spec, plan).params, m.param_count())
      << spec.name << " r_w=" << r_w << " I=" << I;
}

INSTANTIATE_TEST_SUITE_P(
    AllArchsAndPlans, StatsMatchModel,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1.0, 0.66, 0.40),
                       ::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{4})));

TEST(ArchStats, MonotoneInWidth) {
  for (auto spec : {mini_vgg(), mini_resnet(), mini_mobilenet()}) {
    std::size_t prev = 0;
    for (double r : {0.2, 0.4, 0.66, 0.8, 1.0}) {
      const std::size_t p = arch_stats(spec, deep_plan(spec, r, spec.tau)).params;
      EXPECT_GT(p, prev) << spec.name << " r=" << r;
      prev = p;
    }
  }
}

TEST(ArchStats, MonotoneInI) {
  for (auto spec : {mini_vgg(), mini_resnet(), mini_mobilenet()}) {
    std::size_t prev = 0;
    for (std::size_t I = spec.tau; I < spec.num_units(); ++I) {
      const std::size_t p = arch_stats(spec, deep_plan(spec, 0.5, I)).params;
      EXPECT_GT(p, prev) << spec.name << " I=" << I;
      prev = p;
    }
  }
}

TEST(Build, ForwardShapesForAllArchs) {
  Rng rng(1);
  for (auto spec : {mini_vgg(7, 3, 16), mini_resnet(7, 3, 16),
                    mini_mobilenet(7, 3, 16)}) {
    Model m = build_full_model(spec, &rng);
    Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
    EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 7})) << spec.name;
  }
}

TEST(Build, PrunedForwardShapes) {
  Rng rng(2);
  for (auto spec : {mini_vgg(5, 3, 16), mini_resnet(5, 3, 16),
                    mini_mobilenet(5, 3, 16)}) {
    Model m = build_model(spec, deep_plan(spec, 0.4, spec.tau), &rng);
    Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
    EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 5})) << spec.name;
  }
}

TEST(Build, RejectsInvalidPlan) {
  ArchSpec spec = mini_vgg();
  WidthPlan plan(spec.num_units(), 1.0);
  plan[1] = 0.5;
  plan[2] = 0.9;  // increasing after a dip
  EXPECT_THROW(build_model(spec, plan), std::invalid_argument);
}

TEST(Build, RejectsBadExitIndices) {
  ArchSpec spec = mini_resnet();
  BuildOptions opts;
  opts.exits = {0};
  EXPECT_THROW(build_model(spec, WidthPlan(spec.num_units(), 1.0), nullptr, opts),
               std::invalid_argument);
  opts.exits = {spec.num_units()};
  EXPECT_THROW(build_model(spec, WidthPlan(spec.num_units(), 1.0), nullptr, opts),
               std::invalid_argument);
}

TEST(Build, FullSpecsConstructAndCount) {
  // The full-size paper architectures must at least materialize consistently.
  for (auto spec : {resnet18(10, 3, 32), mobilenetv2(10, 3, 32)}) {
    Model m = build_full_model(spec);
    EXPECT_EQ(m.param_count(), arch_stats(spec).params) << spec.name;
    EXPECT_GT(m.param_count(), 1000000u) << spec.name;
  }
}

TEST(Build, KaimingInitProducesReasonableScale) {
  Rng rng(3);
  ArchSpec spec = mini_vgg(10, 3, 16);
  Model m = build_full_model(spec, &rng);
  Tensor x = Tensor::randn({8, 3, 16, 16}, rng);
  Tensor out = m.forward(x, false);
  // Activations should neither explode nor vanish through the stack.
  double mx = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    mx = std::max(mx, std::abs(static_cast<double>(out[i])));
  }
  EXPECT_GT(mx, 1e-3);
  EXPECT_LT(mx, 1e3);
}

}  // namespace
}  // namespace afl
