#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "arch/zoo.hpp"
#include "obs/metrics.hpp"
#include "rl/run_steps.hpp"
#include "rl/selector.hpp"
#include "rl/tables.hpp"

namespace afl {
namespace {

TEST(RlTables, InitializedToOne) {
  RlTables t(7, 3, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(t.curiosity(Level::kSmall, c), 1.0);
    EXPECT_DOUBLE_EQ(t.curiosity(Level::kLarge, c), 1.0);
    for (std::size_t e = 0; e < 7; ++e) EXPECT_DOUBLE_EQ(t.resource_score(e, c), 1.0);
  }
}

TEST(RlTables, RejectsBadPoolSize) {
  EXPECT_THROW(RlTables(6, 3, 4), std::invalid_argument);
}

TEST(RlTables, NoPruneUpdateRewardsTail) {
  // Algorithm 1, lines 15-18: back == sent increments [sent..L1] and adds
  // p-1 extra onto L1.
  RlTables t(7, 3, 2);
  t.update(3, Level::kMedium, 3, Level::kMedium, 0);
  for (std::size_t e = 0; e < 3; ++e) EXPECT_DOUBLE_EQ(t.resource_score(e, 0), 1.0);
  for (std::size_t e = 3; e < 6; ++e) EXPECT_DOUBLE_EQ(t.resource_score(e, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.resource_score(6, 0), 2.0 + 2.0);  // +1 then +(p-1)
  // Curiosity counted twice for the same type (sent and back).
  EXPECT_DOUBLE_EQ(t.curiosity(Level::kMedium, 0), 3.0);
  // Other client untouched.
  EXPECT_DOUBLE_EQ(t.resource_score(4, 1), 1.0);
}

TEST(RlTables, PruneUpdateBoostsBackAndPunishesLarger) {
  // Lines 20-25: back < sent gets +p on back, then tau-progressive punishment
  // on larger entries.
  RlTables t(7, 3, 1);
  t.update(6, Level::kLarge, 2, Level::kSmall, 0);
  EXPECT_DOUBLE_EQ(t.resource_score(2, 0), 1.0 + 3.0 - 0.0);  // +p, tau=0
  EXPECT_DOUBLE_EQ(t.resource_score(3, 0), 0.0);              // 1 - 1
  EXPECT_DOUBLE_EQ(t.resource_score(4, 0), 0.0);              // max(1-2, 0)
  EXPECT_DOUBLE_EQ(t.resource_score(6, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.curiosity(Level::kLarge, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.curiosity(Level::kSmall, 0), 2.0);
}

TEST(RlTables, ScoresNeverNegative) {
  RlTables t(7, 3, 1);
  for (int i = 0; i < 10; ++i) t.update(6, Level::kLarge, 0, Level::kSmall, 0);
  for (std::size_t e = 0; e < 7; ++e) EXPECT_GE(t.resource_score(e, 0), 0.0);
}

TEST(RlTables, UpdateRejectsGrowth) {
  RlTables t(7, 3, 1);
  EXPECT_THROW(t.update(2, Level::kSmall, 4, Level::kMedium, 0),
               std::invalid_argument);
}

TEST(RlTables, FailureUpdatePunishes) {
  RlTables t(7, 3, 1);
  t.update_failure(0, Level::kSmall, 0);
  for (std::size_t e = 0; e < 7; ++e) EXPECT_DOUBLE_EQ(t.resource_score(e, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.curiosity(Level::kSmall, 0), 2.0);
}

TEST(RlTables, CuriosityRewardIsMbieEb) {
  RlTables t(7, 3, 1);
  EXPECT_DOUBLE_EQ(t.curiosity_reward(Level::kSmall, 0), 1.0);
  t.update(0, Level::kSmall, 0, Level::kSmall, 0);  // T_c -> 3
  EXPECT_NEAR(t.curiosity_reward(Level::kSmall, 0), 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(RlTables, ResourceRewardInitiallyFavorsSmall) {
  RlTables t(7, 3, 1);
  const std::vector<std::size_t> s_entries = {0, 1, 2};
  const std::vector<std::size_t> l_entries = {6};
  EXPECT_GT(t.resource_reward(s_entries, 0), t.resource_reward(l_entries, 0));
}

TEST(RlTables, ResourceRewardGrowsForCapableClient) {
  RlTables t(7, 3, 2);
  const std::vector<std::size_t> l_entries = {6};
  const double before = t.resource_reward(l_entries, 0);
  // Client 0 successfully trains L1 repeatedly.
  for (int i = 0; i < 5; ++i) t.update(6, Level::kLarge, 6, Level::kLarge, 0);
  EXPECT_GT(t.resource_reward(l_entries, 0), before);
  // Client 1 keeps failing down to S: its L reward shrinks.
  for (int i = 0; i < 5; ++i) t.update(6, Level::kLarge, 0, Level::kSmall, 1);
  EXPECT_LT(t.resource_reward(l_entries, 1), t.resource_reward(l_entries, 0));
}

TEST(RlTables, OutOfRangeUpdateChangesNothing) {
  RlTables t(7, 3, 4);
  t.update(3, Level::kMedium, 3, Level::kMedium, 1);
  const RlTables::Dump before = t.dump();
  const obs::Counter& updates = obs::metrics().counter("afl.rl.updates");
  const std::uint64_t count = updates.value();
  EXPECT_THROW(t.update(3, Level::kMedium, 3, Level::kMedium, 4), std::out_of_range);
  EXPECT_THROW(t.update_failure(0, Level::kSmall, 4), std::out_of_range);
  EXPECT_THROW(t.update_no_response(Level::kLarge, 4), std::out_of_range);
  EXPECT_THROW(t.update(7, Level::kLarge, 6, Level::kLarge, 0), std::invalid_argument);
  EXPECT_EQ(updates.value(), count);
  EXPECT_EQ(t.dump().cells, before.cells);
  EXPECT_EQ(t.touched(), std::vector<std::size_t>{1});
}

TEST(RlTables, TouchedAscendsAndRoundTrips) {
  RlTables t(7, 3, 10);
  for (std::size_t c : {7, 2, 9, 2, 0}) t.update_no_response(Level::kSmall, c);
  EXPECT_EQ(t.touched(), (std::vector<std::size_t>{0, 2, 7, 9}));
  RlTables copy(7, 3, 10);
  copy.restore(t.dump());
  EXPECT_EQ(copy.dump().cells, t.dump().cells);
  EXPECT_EQ(copy.touched(), t.touched());
}

TEST(RlTables, RestoreRejectsTouchedOutOfRangeOrUnordered) {
  RlTables t(7, 3, 4);
  t.update(6, Level::kLarge, 2, Level::kSmall, 1);
  const RlTables::Dump before = t.dump();
  for (const std::vector<std::size_t>& touched :
       {std::vector<std::size_t>{1, 1000000}, {4}, {2, 1}, {1, 1}}) {
    RlTables::Dump bad = before;
    bad.touched = touched;
    EXPECT_THROW(t.restore(bad), std::invalid_argument);
    EXPECT_EQ(t.dump().cells, before.cells);
    EXPECT_EQ(t.touched(), before.touched);
  }
}

TEST(RlTables, RestoreRejectsNonIntegerOrNegativeCells) {
  RlTables t(7, 3, 4);
  t.update(6, Level::kLarge, 2, Level::kSmall, 1);
  const RlTables::Dump before = t.dump();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // (row, client, value) triples, each wrong in one field.
  for (const std::array<double, 3>& cell :
       std::vector<std::array<double, 3>>{{0, 2.5, 1},  {0, nan, 1}, {0, -1, 1},
                                          {0, 4, 1},    {0, inf, 1}, {3.5, 0, 1},
                                          {10, 0, 1},   {nan, 0, 1}, {-1, 0, 1},
                                          {0, 0, nan},  {0, 0, inf}, {0, 0, -1}}) {
    RlTables::Dump bad = before;
    bad.cells.push_back(cell);
    EXPECT_THROW(t.restore(bad), std::invalid_argument);
    EXPECT_EQ(t.dump().cells, before.cells);
    EXPECT_EQ(t.touched(), before.touched);
  }
}

class SelectorFixture : public ::testing::Test {
 protected:
  SelectorFixture()
      : spec_(mini_vgg(10, 3, 16)),
        pool_(spec_, PoolConfig::defaults_for(spec_)),
        selector_(pool_, 5, SelectionStrategy::kResourceCuriosity) {}
  ArchSpec spec_;
  ModelPool pool_;
  ClientSelector selector_;
};

TEST_F(SelectorFixture, ProbabilitiesSumToOne) {
  std::vector<bool> taken(5, false);
  for (std::size_t m = 0; m < pool_.size(); ++m) {
    const auto p = selector_.probabilities(m, taken);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(SelectorFixture, TakenClientsExcluded) {
  std::vector<bool> taken = {true, false, true, false, true};
  const auto p = selector_.probabilities(0, taken);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_EQ(p[4], 0.0);
  EXPECT_GT(p[1], 0.0);
}

TEST_F(SelectorFixture, AllTakenReturnsNullopt) {
  std::vector<bool> taken(5, true);
  Rng rng(1);
  EXPECT_FALSE(selector_.select(0, taken, rng).has_value());
}

TEST_F(SelectorFixture, LearnsToAvoidWeakClientsForLargeModels) {
  // Clients 0-2 always prune L1 down to S3; clients 3-4 train L1 fine.
  for (int round = 0; round < 30; ++round) {
    for (std::size_t c = 0; c < 3; ++c) {
      selector_.tables().update(pool_.largest_index(), Level::kLarge, 0,
                                Level::kSmall, c);
    }
    for (std::size_t c = 3; c < 5; ++c) {
      selector_.tables().update(pool_.largest_index(), Level::kLarge,
                                pool_.largest_index(), Level::kLarge, c);
    }
  }
  std::vector<bool> taken(5, false);
  const auto p = selector_.probabilities(pool_.largest_index(), taken);
  const double weak = p[0] + p[1] + p[2];
  const double strong = p[3] + p[4];
  EXPECT_GT(strong, weak * 2);
}

TEST_F(SelectorFixture, LevelEntriesPartitionPool) {
  const auto s = selector_.level_entries(Level::kSmall);
  const auto m = selector_.level_entries(Level::kMedium);
  const auto l = selector_.level_entries(Level::kLarge);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(l.size(), 1u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(l[0], 6u);
}

TEST(Selector, RandomStrategyIsUniform) {
  ArchSpec spec = mini_vgg(10, 3, 16);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));
  ClientSelector sel(pool, 4, SelectionStrategy::kRandom);
  // Skew the tables heavily; Random must ignore them.
  for (int i = 0; i < 20; ++i) {
    sel.tables().update(pool.largest_index(), Level::kLarge, 0, Level::kSmall, 0);
  }
  std::vector<bool> taken(4, false);
  const auto p = sel.probabilities(pool.largest_index(), taken);
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(Selector, CuriosityPrefersUnvisited) {
  ArchSpec spec = mini_vgg(10, 3, 16);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));
  ClientSelector sel(pool, 3, SelectionStrategy::kCuriosityOnly);
  // Client 0 visited many times with L models.
  for (int i = 0; i < 15; ++i) {
    sel.tables().update(pool.largest_index(), Level::kLarge, pool.largest_index(),
                        Level::kLarge, 0);
  }
  std::vector<bool> taken(3, false);
  const auto p = sel.probabilities(pool.largest_index(), taken);
  EXPECT_LT(p[0], p[1]);
  EXPECT_NEAR(p[1], p[2], 1e-9);
}

// Dense reference for the selection arithmetic: one stored weight per client,
// normalized, then Rng::categorical. Untouched clients share one reward
// computation, as all-1.0 tables give them the same reward.
std::vector<double> dense_probabilities(const ClientSelector& sel, const ModelPool& pool,
                                        SelectionStrategy strategy, std::size_t m,
                                        const std::vector<bool>& taken) {
  const RlTables& t = sel.tables();
  const std::size_t n = t.num_clients();
  const Level type = pool.entry(m).level;
  const std::vector<std::size_t> entries = sel.level_entries(type);
  const auto reward_of = [&](std::size_t c) {
    switch (strategy) {
      case SelectionStrategy::kResourceCuriosity:
        return t.reward(entries, type, c);
      case SelectionStrategy::kCuriosityOnly:
        return t.curiosity_reward(type, c);
      case SelectionStrategy::kResourceOnly:
        return std::min(0.5, t.resource_reward(entries, c));
      case SelectionStrategy::kRandom:
        return 1.0;
    }
    return 0.0;
  };
  std::vector<double> weights(n, 0.0);
  double fresh_w = -1.0;
  for (std::size_t c = 0; c < n; ++c) {
    if (c < taken.size() && taken[c]) continue;
    if (!std::binary_search(t.touched().begin(), t.touched().end(), c)) {
      if (fresh_w < 0.0) fresh_w = reward_of(c);
      weights[c] = fresh_w;
    } else {
      weights[c] = reward_of(c);
    }
  }
  const std::vector<double>& quality = sel.channel_quality();
  for (std::size_t c = 0; c < n && c < quality.size(); ++c) {
    weights[c] *= std::max(quality[c], 0.0);
  }
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    for (std::size_t c = 0; c < n; ++c) {
      weights[c] = (c < taken.size() && taken[c]) ? 0.0 : 1.0;
    }
    total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

std::optional<std::size_t> dense_select(const std::vector<double>& probs, Rng& rng) {
  double total = 0.0;
  for (double p : probs) total += p;
  if (total <= 0.0) return std::nullopt;
  return rng.categorical(probs);
}

double dense_entropy(const std::vector<double>& probs) {
  if (probs.size() < 2) return 0.0;
  double h = 0.0;
  for (double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h / std::log(static_cast<double>(probs.size()));
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_state(const Rng& a, const Rng& b) {
  const Rng::State x = a.state(), y = b.state();
  return std::equal(x.s, x.s + 4, y.s) && x.has_cached_normal == y.has_cached_normal &&
         same_bits(x.cached_normal, y.cached_normal);
}

// The taken clients of a mask, ascending: the selector's id-list form.
std::vector<std::size_t> ids_of(const std::vector<bool>& taken) {
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < taken.size(); ++c) {
    if (taken[c]) ids.push_back(c);
  }
  return ids;
}

// Streaming selection equals the dense reference bit for bit: every pick, the
// Rng state after it, probabilities() and selection_entropy(). Each case is
// one (client count, strategy) pair under a seeded history of RL updates
// (failures drive some touched clients to weight 0), four kinds of taken mask
// and three kinds of channel quality (all-zero forces the uniform fallback).
class SelectionMatchesDense : public ::testing::TestWithParam<int> {};

TEST_P(SelectionMatchesDense, PicksProbabilitiesAndEntropy) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 50, 1000, 100000};
  constexpr SelectionStrategy kStrategies[] = {
      SelectionStrategy::kResourceCuriosity, SelectionStrategy::kCuriosityOnly,
      SelectionStrategy::kResourceOnly, SelectionStrategy::kRandom};
  const std::size_t n = kSizes[static_cast<std::size_t>(GetParam()) % 6];
  const SelectionStrategy strategy = kStrategies[GetParam() / 6];
  const ArchSpec spec = mini_vgg(10, 3, 16);
  const ModelPool pool(spec, PoolConfig::defaults_for(spec));
  ClientSelector sel(pool, n, strategy);
  Rng rng(0x5E1EC7u + static_cast<std::uint64_t>(GetParam()));
  const std::size_t last = pool.size() - 1;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::size_t updates = 1 + rng.uniform_index(std::min<std::size_t>(3 * n, 60));
    for (std::size_t u = 0; u < updates; ++u) {
      const std::size_t c = rng.uniform_index(n);
      const std::size_t sent = rng.uniform_index(pool.size());
      const Level sent_type = pool.entry(sent).level;
      switch (rng.uniform_index(4)) {
        case 0:
          sel.tables().update_failure(rng.uniform_index(2) == 0 ? 0 : sent, sent_type, c);
          break;
        case 1:
          sel.tables().update_no_response(sent_type, c);
          break;
        default: {
          const std::size_t back = rng.uniform_index(sent + 1);
          sel.tables().update(sent, sent_type, back, pool.entry(back).level, c);
        }
      }
    }
    for (int q = 0; q < 3; ++q) {
      std::vector<double> quality;
      if (q == 1) {
        quality.resize(n - rng.uniform_index(std::min<std::size_t>(n, 2)));
        for (double& x : quality) x = 1.0 - rng.uniform();  // (0, 1]
      } else if (q == 2) {
        quality.assign(n, 0.0);
      }
      sel.set_channel_quality(quality);
      std::vector<std::vector<bool>> masks(4);
      masks[1].resize(rng.uniform_index(n));
      masks[2].resize(n + rng.uniform_index(3));
      for (std::size_t k : {1, 2}) {
        for (std::size_t c = 0; c < masks[k].size(); ++c) masks[k][c] = rng.uniform() < 0.3;
      }
      masks[3].assign(n, true);
      for (const std::vector<bool>& taken : masks) {
        const std::vector<std::size_t> ids = ids_of(taken);
        for (std::size_t m : {rng.uniform_index(pool.size()), last}) {
          const std::vector<double> dense = dense_probabilities(sel, pool, strategy, m, taken);
          const std::vector<double> streamed = sel.probabilities(m, taken);
          ASSERT_EQ(streamed.size(), dense.size());
          ASSERT_EQ(std::memcmp(streamed.data(), dense.data(), n * sizeof(double)), 0)
              << "n=" << n << " m=" << m << " quality=" << q;
          const std::vector<double> listed = sel.probabilities(m, ids);
          ASSERT_EQ(listed.size(), dense.size());
          ASSERT_EQ(std::memcmp(listed.data(), dense.data(), n * sizeof(double)), 0)
              << "n=" << n << " m=" << m << " quality=" << q << " (id list)";
          for (int draw = 0; draw < 3; ++draw) {
            Rng a(rng.next_u64());
            Rng b = a;
            Rng c = a;
            const std::optional<std::size_t> want = dense_select(dense, b);
            ASSERT_EQ(sel.select(m, taken, a), want) << "n=" << n;
            ASSERT_TRUE(same_state(a, b));
            ASSERT_EQ(sel.select(m, ids, c), want) << "n=" << n << " (id list)";
            ASSERT_TRUE(same_state(c, b));
          }
        }
      }
      for (std::size_t m = 0; m < pool.size(); ++m) {
        const double dense = dense_entropy(dense_probabilities(sel, pool, strategy, m, {}));
        ASSERT_TRUE(same_bits(sel.selection_entropy(m), dense))
            << "n=" << n << " m=" << m << " quality=" << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndStrategies, SelectionMatchesDense, ::testing::Range(0, 24));

// The scale-out regime: 2^20 clients, few of them touched or taken, so each
// run of fresh clients is long and every pass crosses many binades in
// closed form. One RL history, no channel quality; an empty and a sparse
// taken list.
TEST(SelectionMatchesDense, MillionClientsEmptyAndSparseTaken) {
  constexpr std::size_t n = std::size_t{1} << 20;
  const ArchSpec spec = mini_vgg(10, 3, 16);
  const ModelPool pool(spec, PoolConfig::defaults_for(spec));
  ClientSelector sel(pool, n, SelectionStrategy::kResourceCuriosity);
  Rng rng(0x5CA1Eu);
  for (int u = 0; u < 300; ++u) {
    const std::size_t c = rng.uniform_index(n);
    const std::size_t sent = rng.uniform_index(pool.size());
    const std::size_t back = rng.uniform_index(sent + 1);
    if (u % 5 == 0) {
      sel.tables().update_failure(sent, pool.entry(sent).level, c);
    } else {
      sel.tables().update(sent, pool.entry(sent).level, back, pool.entry(back).level, c);
    }
  }
  std::vector<bool> sparse(n, false);
  for (int t = 0; t < 64; ++t) sparse[rng.uniform_index(n)] = true;
  for (const std::size_t c : sel.tables().touched()) {
    if (rng.uniform() < 0.25) sparse[c] = true;  // taken and touched
  }
  for (const std::vector<bool>& taken : {std::vector<bool>{}, sparse}) {
    const std::vector<std::size_t> ids = ids_of(taken);
    for (const std::size_t m : {std::size_t{0}, pool.size() / 2, pool.size() - 1}) {
      const std::vector<double> dense = dense_probabilities(
          sel, pool, SelectionStrategy::kResourceCuriosity, m, taken);
      for (int draw = 0; draw < 4; ++draw) {
        Rng a(rng.next_u64());
        Rng b = a;
        ASSERT_EQ(sel.select(m, ids, a), dense_select(dense, b))
            << "m=" << m << " taken=" << ids.size();
        ASSERT_TRUE(same_state(a, b));
      }
    }
  }
  for (std::size_t m = 0; m < pool.size(); ++m) {
    const double dense = dense_entropy(
        dense_probabilities(sel, pool, SelectionStrategy::kResourceCuriosity, m, {}));
    ASSERT_TRUE(same_bits(sel.selection_entropy(m), dense)) << "m=" << m;
  }
}

// run_steps() against the loop it replaces, bit for bit: the final value,
// and for a stop predicate the count of steps before it fired.
template <typename Step, typename Stop>
::testing::AssertionResult same_as_plain_loop(double s, std::size_t k, Step step, Stop stop) {
  std::size_t want_done = 0;
  double want = s;
  for (; want_done < k; ++want_done) {
    if (stop(want = step(want))) break;
  }
  std::size_t done = k + 1;
  const double got = run_steps(s, k, step, stop, &done);
  if (same_bits(got, want) && done == want_done) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << "start " << s << ", k " << k << ": got " << got << " after "
         << done << " steps, the loop " << want << " after " << want_done;
}

const auto never = [](double) { return false; };

// Rounds a * b on its own: the product an unfused h -= p * lp subtracts.
[[gnu::noinline]] double rounded_product(double a, double b) { return a * b; }

// A step count: mostly short runs, some long ones.
std::size_t run_length(Rng& rng) {
  if (rng.uniform_index(8) == 0) return rng.uniform_index(16);
  return static_cast<std::size_t>(std::exp(rng.uniform() * std::log(20000.0)));
}

// A double with a random sign, significand and exponent in [lo, hi].
double random_double(Rng& rng, int lo, int hi) {
  const int e = lo + static_cast<int>(rng.uniform_index(static_cast<std::size_t>(hi - lo + 1)));
  const double f = std::ldexp(1.0 + rng.uniform(), e);
  return rng.uniform_index(2) == 0 ? f : -f;
}

TEST(RunSteps, AdditionMatchesThePlainLoop) {
  Rng rng(0xADD5u);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int t = 0; t < 12000; ++t) {
    double s = 0.0;
    double v = 0.0;
    switch (t % 6) {
      case 0: {  // ties: v an odd number of half ulps of s's binade, both parities
        const int e = static_cast<int>(rng.uniform_index(40)) - 20;
        const double u = std::ldexp(1.0, e - 52);
        s = std::ldexp(1.0, e) + u * static_cast<double>(rng.uniform_index(1000));
        v = u * (static_cast<double>(rng.uniform_index(6)) + 0.5);
        break;
      }
      case 1:  // unrelated magnitudes, either sign
        s = random_double(rng, -30, 30);
        v = random_double(rng, -60, 10);
        break;
      case 2:  // zero and subnormal starts, subnormal or small steps
        s = rng.uniform_index(2) == 0 ? 0.0 : tiny * static_cast<double>(rng.uniform_index(5000));
        v = rng.uniform_index(2) == 0 ? tiny * static_cast<double>(1 + rng.uniform_index(9))
                                      : random_double(rng, -1060, -1000);
        if (rng.uniform_index(4) == 0) s = -s;
        break;
      case 3:  // v = 0, or a v that rounds away (s + v == s)
        s = random_double(rng, -10, 10);
        v = rng.uniform_index(2) == 0
                ? 0.0
                : std::ldexp(std::fabs(s), -54 - static_cast<int>(rng.uniform_index(20)));
        break;
      case 4:  // a start of either sign and a step of the other
        s = random_double(rng, 0, 8);
        v = std::copysign(std::fabs(random_double(rng, -12, -2)), -s);
        break;
      default:  // the selector's case: a sum of non-negative weights from 0
        s = 0.0;
        v = std::fabs(random_double(rng, -25, 0));
    }
    const std::size_t k = run_length(rng);
    ASSERT_TRUE(same_as_plain_loop(s, k, [v](double x) { return x + v; }, never))
        << std::hexfloat << "v " << v;
  }
}

TEST(RunSteps, LongRunsCrossManyBinades) {
  Rng rng(0xB1AADEu);
  for (int t = 0; t < 8; ++t) {
    const std::size_t k = t < 4 ? 10000000 : 1 + rng.uniform_index(2000000);
    const double v = std::ldexp(1.0 + rng.uniform(), -40 + static_cast<int>(rng.uniform_index(30)));
    // From 0 a sum of 10^7 steps crosses 23 binades; from a start far below
    // v or far above, a few more or none.
    for (const double s : {0.0, v * 1e-9, v * 3e6, -v * 5e6}) {
      ASSERT_TRUE(same_as_plain_loop(s, k, [v](double x) { return x + v; }, never))
          << std::hexfloat << "v " << v;
    }
  }
}

TEST(RunSteps, ScanStopsWhereThePlainLoopDoes) {
  Rng rng(0x5CA4u);
  const auto below_zero = [](double r) { return r < 0.0; };
  for (int t = 0; t < 6000; ++t) {
    const double v = std::ldexp(1.0 + rng.uniform(), -30 + static_cast<int>(rng.uniform_index(30)));
    const std::size_t k = run_length(rng);
    double r = 0.0;
    switch (t % 3) {
      case 0:  // stops somewhere in the run, or just past it
        r = v * static_cast<double>(k) * 1.2 * rng.uniform();
        break;
      case 1: {  // exactly 0 after j steps (not a stop), negative after j + 1
        const double step = std::ldexp(static_cast<double>(1 + 2 * rng.uniform_index(8)),
                                       -static_cast<int>(rng.uniform_index(40)));
        const std::size_t j = rng.uniform_index(k + 2);
        ASSERT_TRUE(same_as_plain_loop(step * static_cast<double>(j), k,
                                       [step](double x) { return x - step; }, below_zero));
        continue;
      }
      default:  // v below half an ulp of r: r never moves
        r = v * 0x1p60 * (1.0 + rng.uniform());
    }
    ASSERT_TRUE(same_as_plain_loop(r, k, [v](double x) { return x - v; }, below_zero))
        << std::hexfloat << "v " << v;
  }
  // A run long enough to cross many binades on the way down to its stop.
  const double v = 0x1.3p-20;
  ASSERT_TRUE(same_as_plain_loop(v * 9999999.5, 10000000, [v](double x) { return x - v; },
                                 below_zero));
}

TEST(RunSteps, EntropyStepsFusedAndUnfusedMatchThePlainLoop) {
  Rng rng(0xE27u);
  for (int t = 0; t < 4000; ++t) {
    const double p = std::ldexp(1.0 - rng.uniform(), -static_cast<int>(rng.uniform_index(24)));
    const double lp = std::log(p);
    const double h = t % 2 == 0 ? 0.0 : rng.uniform() * 10.0;
    const std::size_t k = t % 50 == 0 ? 2000000 : run_length(rng);
    ASSERT_TRUE(same_as_plain_loop(h, k, [p, lp](double x) { return std::fma(-p, lp, x); },
                                   never))
        << std::hexfloat << "fused, p " << p;
    const double product = rounded_product(p, lp);
    ASSERT_TRUE(same_as_plain_loop(h, k, [product](double x) { return x - product; }, never))
        << std::hexfloat << "unfused, p " << p;
  }
}

TEST(RunSteps, NonFiniteStartsAndStepsMatchThePlainLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  const auto below_zero = [](double r) { return r < 0.0; };
  for (const double s : {0.0, 1.5, -2.0, big, -big, inf, -inf, nan}) {
    for (const double v : {0.0, 0.25, -3.0, big / 4, inf, -inf, nan}) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                                  std::size_t{1000}}) {
        ASSERT_TRUE(same_as_plain_loop(s, k, [v](double x) { return x + v; }, never))
            << "v " << v;
        ASSERT_TRUE(same_as_plain_loop(s, k, [v](double x) { return x - v; }, below_zero))
            << "v " << v;
      }
    }
  }
}

TEST(Selector, StrategyNames) {
  EXPECT_STREQ(selection_strategy_name(SelectionStrategy::kResourceCuriosity), "CS");
  EXPECT_STREQ(selection_strategy_name(SelectionStrategy::kCuriosityOnly), "C");
  EXPECT_STREQ(selection_strategy_name(SelectionStrategy::kResourceOnly), "S");
  EXPECT_STREQ(selection_strategy_name(SelectionStrategy::kRandom), "Random");
}

}  // namespace
}  // namespace afl
