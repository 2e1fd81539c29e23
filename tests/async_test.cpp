// Unit tests for the async aggregation building blocks (docs/ASYNC.md):
// event-queue total ordering under shuffled insertion, virtual-clock
// monotonicity, staleness, its discount and cutoff against hand-computed
// values, the per-dispatch compute-once clock, and
// staleness-weighted aggregation vs hand-computed weighted means.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "async/config.hpp"
#include "async/virtual_clock.hpp"
#include "fl/aggregate.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

using async::Event;
using async::EventKind;
using async::EventQueue;
using async::VirtualClock;

TEST(VirtualClockTest, MonotonicAdvance) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  EXPECT_TRUE(clock.advance_to(1.5));
  EXPECT_EQ(clock.now(), 1.5);
  EXPECT_TRUE(clock.advance_to(1.5));  // no-op, same instant is fine
  EXPECT_FALSE(clock.advance_to(1.0));  // the past is rejected...
  EXPECT_EQ(clock.now(), 1.5);          // ...and the clock is untouched
}

std::vector<Event> base_events() {
  // Deliberate collisions: two events at t=2.0 (dispatch breaks the tie) and
  // two of dispatch 4 for the same client at different times.
  return {
      {2.0, 3, 1, 0, EventKind::kArrival}, {1.0, 1, 0, 0, EventKind::kUpload},
      {2.0, 2, 5, 0, EventKind::kUpload},  {0.5, 0, 2, 0, EventKind::kFailure},
      {3.0, 4, 1, 0, EventKind::kArrival}, {2.5, 4, 1, 0, EventKind::kUpload},
  };
}

std::vector<std::size_t> drain_dispatch_order(const std::vector<Event>& events) {
  EventQueue q;
  for (const Event& e : events) q.push(e);
  std::vector<std::size_t> order;
  VirtualClock clock;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_TRUE(clock.advance_to(e.time)) << "event popped out of time order";
    order.push_back(e.dispatch);
  }
  return order;
}

TEST(EventQueueTest, PopOrderIndependentOfInsertionOrder) {
  const std::vector<Event> events = base_events();
  const std::vector<std::size_t> expected = {0, 1, 2, 3, 4, 4};

  std::vector<Event> shuffled = events;
  std::sort(shuffled.begin(), shuffled.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });
  EXPECT_EQ(drain_dispatch_order(shuffled), expected);

  // Many pseudo-random permutations all drain identically.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
    }
    EXPECT_EQ(drain_dispatch_order(shuffled), expected) << "trial " << trial;
  }
}

TEST(EventQueueTest, TimeTieBrokenByDispatchThenClientThenSeq) {
  EventQueue q;
  q.push({1.0, 7, 3, 0, EventKind::kUpload});
  q.push({1.0, 7, 1, 0, EventKind::kUpload});
  q.push({1.0, 2, 9, 0, EventKind::kUpload});
  EXPECT_EQ(q.pop().dispatch, 2u);
  EXPECT_EQ(q.pop().client, 1u);
  EXPECT_EQ(q.pop().client, 3u);

  // Full collision: insertion sequence decides, first in pops first.
  q.push({4.0, 5, 5, 0, EventKind::kUpload});
  q.push({4.0, 5, 5, 0, EventKind::kArrival});
  EXPECT_EQ(q.pop().kind, EventKind::kUpload);
  EXPECT_EQ(q.pop().kind, EventKind::kArrival);
}

TEST(AsyncAggregatorTest, StalenessAndVersioning) {
  using async::staleness;
  // The global version is the flush count (docs/ASYNC.md). After one flush
  // an update trained on version 0 is one version stale; one trained on the
  // current version is fresh. Future versions clamp to 0.
  EXPECT_EQ(staleness(/*version=*/0, /*flushes=*/1), 1u);
  EXPECT_EQ(staleness(1, 1), 0u);
  EXPECT_EQ(staleness(5, 1), 0u);
}

TEST(AsyncAggregatorTest, WeightScaleMatchesHandComputedDiscount) {
  using async::staleness_weight;
  EXPECT_EQ(staleness_weight(0, 0.5), 1.0);  // fresh: exact identity
  // tau=1: 1/(1+1)^0.5 = 1/sqrt(2); tau=3: 1/2.
  EXPECT_DOUBLE_EQ(staleness_weight(1, 0.5), 1.0 / std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(staleness_weight(3, 0.5), 0.5);

  // alpha=0 disables the discount entirely.
  EXPECT_EQ(staleness_weight(2, 0.0), 1.0);

  // alpha=1 reproduces FedAsync's polynomial-1 discount: 1/(1+tau).
  EXPECT_DOUBLE_EQ(staleness_weight(3, 1.0), 1.0 / 4.0);
}

TEST(AsyncAggregatorTest, MaxStalenessCutoff) {
  using async::too_stale;
  EXPECT_FALSE(too_stale(0, 2));
  EXPECT_FALSE(too_stale(2, 2));  // tau = 2 == cap: still admitted
  EXPECT_TRUE(too_stale(3, 2));   // tau = 3 > cap
  // Cap 0 means "no cutoff", not "discard everything".
  EXPECT_FALSE(too_stale(10, 0));
}

TEST(ClientClockTest, ComputeChargedOncePerDispatch) {
  net::Transport::ClientClock clock;
  clock.add_transfer(1.0);  // downlink
  EXPECT_TRUE(clock.charge_compute(5.0));
  EXPECT_DOUBLE_EQ(clock.elapsed_seconds(), 6.0);

  // A retransmitted upload re-charges transfer time only: the device does
  // not retrain, so the second compute charge must be a no-op.
  clock.add_transfer(2.0);
  EXPECT_FALSE(clock.charge_compute(5.0));
  EXPECT_DOUBLE_EQ(clock.elapsed_seconds(), 8.0);
  EXPECT_TRUE(clock.compute_charged());
}

ParamSet single(const std::string& name, Tensor t) {
  ParamSet ps;
  ps.emplace(name, std::move(t));
  return ps;
}

TEST(WeightedAggregateTest, StalenessDiscountedFedAvgMatchesHandComputed) {
  ParamSet global = single("w", Tensor::zeros({2}));
  std::vector<ClientUpdate> updates;
  // Equal data sizes; the stale client is discounted to weight 0.25.
  updates.push_back({single("w", Tensor::from_vector({2}, {1, 10})), 4, 1.0});
  updates.push_back({single("w", Tensor::from_vector({2}, {9, 90})), 4, 0.25});
  const ParamSet out = fedavg_aggregate(global, updates);
  // Effective masses 4 and 1: (1*4 + 9*1) / 5, (10*4 + 90*1) / 5.
  EXPECT_NEAR(out.at("w")[0], 13.0 / 5.0, 1e-5);
  EXPECT_NEAR(out.at("w")[1], 130.0 / 5.0, 1e-5);
}

TEST(WeightedAggregateTest, HeteroPrefixSliceHonorsWeights) {
  ParamSet global = single("w", Tensor::from_vector({3}, {0, 0, 7}));
  std::vector<ClientUpdate> updates;
  // Full-width fresh update vs a width-pruned stale one covering only the
  // first two elements at half weight.
  updates.push_back({single("w", Tensor::from_vector({3}, {2, 2, 2})), 2, 1.0});
  updates.push_back({single("w", Tensor::from_vector({2}, {8, 8})), 2, 0.5});
  const ParamSet out = hetero_aggregate(global, updates);
  // Elements 0-1: (2*2 + 8*1) / 3; element 2 covered only by the fresh one.
  EXPECT_NEAR(out.at("w")[0], (2.0 * 2.0 + 8.0 * 1.0) / 3.0, 1e-5);
  EXPECT_NEAR(out.at("w")[1], (2.0 * 2.0 + 8.0 * 1.0) / 3.0, 1e-5);
  EXPECT_NEAR(out.at("w")[2], 2.0, 1e-5);
  // Weight 1.0 everywhere must reproduce the unweighted path bit-for-bit.
  std::vector<ClientUpdate> unit = {{single("w", Tensor::from_vector({3}, {2, 2, 2})), 2},
                                    {single("w", Tensor::from_vector({2}, {8, 8})), 2}};
  std::vector<ClientUpdate> explicit_unit = unit;
  for (ClientUpdate& u : explicit_unit) u.weight = 1.0;
  EXPECT_EQ(max_abs_diff(hetero_aggregate(global, unit),
                         hetero_aggregate(global, explicit_unit)),
            0.0);
}

TEST(AsyncConfigTest, DefaultsAreDisabledAndSane) {
  const async::AsyncConfig cfg;
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.buffer_size, 0u);       // 0 = derive from clients_per_round
  EXPECT_EQ(cfg.concurrency, 0u);       // 0 = derive from buffer size
  EXPECT_DOUBLE_EQ(cfg.staleness_alpha, 0.5);
  EXPECT_EQ(cfg.max_staleness, 0u);     // no cutoff
  EXPECT_GT(cfg.failure_timeout_s, 0.0);
}

}  // namespace
}  // namespace afl
