// Population-dynamics subsystem tests (src/pop/, docs/POPULATION.md):
// parametric churn determinism, ring-rotation accounting, scripted trace
// parsing and per-client channel sampling. How the engine asks the
// population for presence is tested in engine_test.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/channel.hpp"
#include "pop/config.hpp"
#include "pop/population.hpp"
#include "util/rng.hpp"

namespace afl::pop {
namespace {

PopConfig rotating_config() {
  PopConfig cfg;
  cfg.enabled = true;
  cfg.active_frac = 0.75;
  cfg.rotate_every = 5;
  cfg.rotate_frac = 0.3;
  return cfg;
}

TEST(Population, DisabledConfigYieldsNullPopulation) {
  EXPECT_EQ(Population::create(PopConfig{}, 10, 1), nullptr);
}

TEST(Population, ParametricPresenceIsDeterministic) {
  const PopConfig cfg = rotating_config();
  const auto a = Population::create(cfg, 64, 11);
  const auto b = Population::create(cfg, 64, 11);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  bool differs_across_seeds = false;
  const auto other = Population::create(cfg, 64, 12);
  for (std::size_t round = 0; round < 40; ++round) {
    for (std::size_t c = 0; c < 64; ++c) {
      EXPECT_EQ(a->state(c, round), b->state(c, round));
      if (a->state(c, round) != other->state(c, round)) differs_across_seeds = true;
    }
  }
  EXPECT_TRUE(differs_across_seeds);
}

TEST(Population, RingRotationChurnsOnlyAtEpochBoundaries) {
  const auto pop = Population::create(rotating_config(), 200, 3);
  for (std::size_t round = 1; round < 30; ++round) {
    const RoundChurn churn = pop->round_churn(round);
    // Active membership hovers around active_frac * n; the ring preserves
    // the window measure, so the count never drifts far.
    EXPECT_GT(churn.active, 100u);
    EXPECT_LT(churn.active, 200u);
    if (round % 5 == 0) {
      // Epoch boundary: ~rotate_frac of the active window crossed out and an
      // equal measure rotated in.
      EXPECT_GT(churn.departures, 0u);
      EXPECT_GT(churn.joins, 0u);
    } else {
      EXPECT_EQ(churn.departures, 0u);
      EXPECT_EQ(churn.joins, 0u);
    }
  }
}

TEST(Population, FullyActiveFleetNeverChurns) {
  PopConfig cfg;
  cfg.enabled = true;  // active_frac 1.0, no rotation, no dark
  const auto pop = Population::create(cfg, 32, 5);
  for (std::size_t round = 0; round < 20; ++round) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_EQ(pop->state(c, round), Presence::kPresent);
    }
  }
}

TEST(Population, DarkBlocksFollowProbability) {
  PopConfig cfg;
  cfg.enabled = true;
  cfg.dark_prob = 1.0;
  cfg.dark_len = 3;
  const auto always = Population::create(cfg, 16, 9);
  cfg.dark_prob = 0.0;
  const auto never = Population::create(cfg, 16, 9);
  for (std::size_t round = 0; round < 9; ++round) {
    for (std::size_t c = 0; c < 16; ++c) {
      EXPECT_EQ(always->state(c, round), Presence::kDark);
      EXPECT_EQ(never->state(c, round), Presence::kPresent);
    }
  }
}

class ScriptedTraceTest : public ::testing::Test {
 protected:
  void write_trace(const std::string& body) {
    // One file per case: ctest runs the cases as concurrent processes.
    path_ = ::testing::TempDir() + "pop_trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
    std::ofstream out(path_);
    out << body;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ScriptedTraceTest, ScriptOverridesParametricProcess) {
  write_trace(
      "# clients 1-3 are scripted, the rest follow the parametric process\n"
      "join 3 5\n"
      "leave 1 4\n"
      "dark 2 2 3  # three rounds starting at round 2\n");
  PopConfig cfg;
  cfg.enabled = true;  // parametric part: everyone present
  cfg.trace_path = path_;
  const auto pop = Population::create(cfg, 10, 1);
  // Client 3's first record is its join: absent before round 5.
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(pop->state(3, r), Presence::kAbsent);
  for (std::size_t r = 5; r < 12; ++r) EXPECT_EQ(pop->state(3, r), Presence::kPresent);
  // Client 1 starts present and departs for good at round 4.
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(pop->state(1, r), Presence::kPresent);
  for (std::size_t r = 4; r < 12; ++r) EXPECT_EQ(pop->state(1, r), Presence::kAbsent);
  // Client 2 is a member throughout but dark for rounds [2, 5).
  EXPECT_EQ(pop->state(2, 1), Presence::kPresent);
  for (std::size_t r = 2; r < 5; ++r) EXPECT_EQ(pop->state(2, r), Presence::kDark);
  EXPECT_EQ(pop->state(2, 5), Presence::kPresent);
  // Unscripted clients keep the parametric behavior.
  EXPECT_EQ(pop->state(0, 3), Presence::kPresent);
}

TEST_F(ScriptedTraceTest, MalformedTracesThrow) {
  PopConfig cfg;
  cfg.enabled = true;
  cfg.trace_path = ::testing::TempDir() + "no_such_trace.txt";
  EXPECT_THROW(Population::create(cfg, 4, 1), std::runtime_error);

  write_trace("frobnicate 1 2\n");
  cfg.trace_path = path_;
  EXPECT_THROW(Population::create(cfg, 4, 1), std::runtime_error);

  write_trace("join 99 0\n");
  EXPECT_THROW(Population::create(cfg, 4, 1), std::runtime_error);

  write_trace("dark 1 2\n");  // missing <len>
  EXPECT_THROW(Population::create(cfg, 4, 1), std::runtime_error);
}

TEST(Population, ChannelSamplingIsDeterministicAndBounded) {
  PopConfig cfg;
  cfg.enabled = true;
  cfg.channels = true;
  cfg.bw_spread = 1.0;
  cfg.latency_spread = 0.5;
  cfg.loss_max = 0.05;
  net::ChannelConfig base;
  base.bandwidth_bytes_per_s = 1e5;
  base.latency_s = 0.01;
  base.loss_prob = 0.0;

  const auto a = Population::create(cfg, 40, 21);
  const auto b = Population::create(cfg, 40, 21);
  a->sample_channels(base);
  b->sample_channels(base);
  ASSERT_TRUE(a->has_channels());
  ASSERT_EQ(a->channels().size(), 40u);
  double best_quality = 0.0;
  for (std::size_t c = 0; c < 40; ++c) {
    const net::ChannelConfig& ch = a->channels()[c];
    EXPECT_EQ(ch.bandwidth_bytes_per_s, b->channels()[c].bandwidth_bytes_per_s);
    EXPECT_EQ(ch.latency_s, b->channels()[c].latency_s);
    EXPECT_EQ(ch.loss_prob, b->channels()[c].loss_prob);
    // Log-uniform bandwidth in [base/2, base*2]; latency in [1, 1.5]x; loss
    // in [0, loss_max].
    EXPECT_GE(ch.bandwidth_bytes_per_s, base.bandwidth_bytes_per_s / 2.0 - 1e-6);
    EXPECT_LE(ch.bandwidth_bytes_per_s, base.bandwidth_bytes_per_s * 2.0 + 1e-6);
    EXPECT_GE(ch.latency_s, base.latency_s);
    EXPECT_LE(ch.latency_s, base.latency_s * 1.5);
    EXPECT_GE(ch.loss_prob, 0.0);
    EXPECT_LE(ch.loss_prob, 0.05);
    const double q = a->channel_quality()[c];
    EXPECT_GT(q, 0.0);
    EXPECT_LE(q, 1.0);
    best_quality = std::max(best_quality, q);
  }
  EXPECT_DOUBLE_EQ(best_quality, 1.0);
}

}  // namespace
}  // namespace afl::pop
