// Tests for the observability subsystem: metrics instruments, the registry,
// the JSON validator, and the JSONL trace emitter with its per-task capture.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace afl::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(ObsCounter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(ObsCounter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, ConcurrentRecordsAreLossless) {
  Histogram h(Histogram::exponential_bounds(1.0, 1024.0, 11));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(1.0 + t);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum = 10000 * (1+2+3+4)
  EXPECT_DOUBLE_EQ(h.sum(), 10000.0 * 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

// ---------------------------------------------------------------------------
// Histogram percentile math
// ---------------------------------------------------------------------------

TEST(ObsHistogram, ExactPercentilesOnBucketBounds) {
  // Bounds 1..100 so every integer sample sits exactly on a bucket bound: the
  // reported percentile is the true order statistic.
  std::vector<double> bounds(100);
  for (int i = 0; i < 100; ++i) bounds[static_cast<std::size_t>(i)] = i + 1;
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.record(v);

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(1), 1.0);

  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
}

TEST(ObsHistogram, SingleSampleClampsToObservedRange) {
  Histogram h(Histogram::exponential_bounds(1e-6, 100.0, 56));
  h.record(0.5);
  // Whatever bucket 0.5 lands in, the percentile must clamp to [min, max].
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.5);
}

TEST(ObsHistogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
  const auto s = Histogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(ObsHistogram, PercentileExtremesClampToObservedRange) {
  Histogram h(Histogram::exponential_bounds(1e-6, 100.0, 56));
  h.record(0.25);
  h.record(4.0);
  // Bucket interpolation means p=0 is not exactly the min, but no percentile
  // may ever escape [min, max] — and p=100 clamps to the max exactly.
  EXPECT_DOUBLE_EQ(h.percentile(100), 4.0);
  for (const double p : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 0.25) << "p=" << p;
    EXPECT_LE(h.percentile(p), 4.0) << "p=" << p;
  }
}

TEST(ObsHistogram, SingleSampleSnapshotIsDegenerate) {
  Histogram h(Histogram::exponential_bounds(1e-6, 100.0, 56));
  h.record(2.5);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // All percentiles of a single sample collapse to that sample.
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_DOUBLE_EQ(s.p95, 2.5);
  EXPECT_DOUBLE_EQ(s.p99, 2.5);
}

TEST(ObsHistogram, OverflowBucketCatchesLargeSamples) {
  Histogram h({1.0, 2.0});
  h.record(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 1000.0);  // clamped to max
}

TEST(ObsHistogram, ResetZeroesEverything) {
  Histogram h({1.0, 2.0, 4.0});
  h.record(1.0);
  h.record(4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(ObsHistogram, ExponentialBoundsShape) {
  const auto b = Histogram::exponential_bounds(1.0, 64.0, 7);
  ASSERT_EQ(b.size(), 7u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_NEAR(b.back(), 64.0, 1e-9);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SameNameSameInstance) {
  Registry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(&r.gauge("g"), &r.gauge("g"));
  EXPECT_EQ(&r.histogram("h"), &r.histogram("h"));
}

TEST(ObsRegistry, SnapshotsListEverything) {
  Registry r;
  r.counter("a.count").inc(2);
  r.gauge("b.gauge").set(1.25);
  r.histogram("c.hist").record(0.5);
  const auto cs = r.counters();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].first, "a.count");
  EXPECT_EQ(cs[0].second, 2u);
  const auto gs = r.gauges();
  ASSERT_EQ(gs.size(), 1u);
  EXPECT_DOUBLE_EQ(gs[0].second, 1.25);
  const auto hs = r.histograms();
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0].second.count, 1u);
}

TEST(ObsRegistry, ToJsonlEveryLineValidates) {
  Registry r;
  r.counter("afl.test.counter").inc(7);
  r.gauge("afl.test.gauge").set(-0.5);
  r.histogram("afl.test.hist").record(1e-3);
  std::istringstream in(r.to_jsonl());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(json_validate(line)) << line;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(ObsRegistry, ResetKeepsNames) {
  Registry r;
  r.counter("k").inc(5);
  r.histogram("h").record(1.0);
  r.reset();
  EXPECT_EQ(r.counters().size(), 1u);
  EXPECT_EQ(r.counter("k").value(), 0u);
  EXPECT_EQ(r.histogram("h").count(), 0u);
}

// Regression: gauges must be zeroed by reset() like every other instrument,
// or afl.rl.selector.entropy / pool gauges leak across back-to-back runs in
// one process.
TEST(ObsRegistry, ResetClearsGaugesToo) {
  Registry r;
  r.gauge("afl.rl.selector.entropy").set(0.73);
  r.gauge("afl.engine.pool.threads").set(8.0);
  r.counter("c").inc(3);
  r.histogram("h").record(1.0);
  r.reset();
  const auto gs = r.gauges();
  ASSERT_EQ(gs.size(), 2u);  // names survive reset
  for (const auto& [name, v] : gs) EXPECT_DOUBLE_EQ(v, 0.0) << name;
}

TEST(ObsGauge, Reset) {
  Gauge g;
  g.set(2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketsAreCumulative) {
  Histogram h({1.0, 2.0, 4.0});
  h.record(0.5);
  h.record(1.5);
  h.record(3.0);
  h.record(100.0);  // overflow bucket
  const Histogram::Buckets b = h.buckets();
  ASSERT_EQ(b.bounds.size(), 3u);
  ASSERT_EQ(b.cumulative.size(), 4u);
  EXPECT_EQ(b.cumulative[0], 1u);
  EXPECT_EQ(b.cumulative[1], 2u);
  EXPECT_EQ(b.cumulative[2], 3u);
  EXPECT_EQ(b.cumulative[3], 4u);  // +Inf == count
  EXPECT_EQ(b.cumulative.back(), h.count());
}

TEST(ObsRegistry, GlobalIsSingleton) { EXPECT_EQ(&metrics(), &metrics()); }

// ---------------------------------------------------------------------------
// JSON validator
// ---------------------------------------------------------------------------

TEST(ObsJson, ValidatesGoodDocuments) {
  EXPECT_TRUE(json_validate("{}"));
  EXPECT_TRUE(json_validate("[]"));
  EXPECT_TRUE(json_validate("  {\"a\": [1, 2.5, -3e-2], \"b\": {\"c\": null}} "));
  EXPECT_TRUE(json_validate("\"str with \\\"escape\\\" and \\u00e9\""));
  EXPECT_TRUE(json_validate("true"));
  EXPECT_TRUE(json_validate("-0.125"));
}

TEST(ObsJson, RejectsBadDocuments) {
  EXPECT_FALSE(json_validate(""));
  EXPECT_FALSE(json_validate("{"));
  EXPECT_FALSE(json_validate("{\"a\":}"));
  EXPECT_FALSE(json_validate("{\"a\":1,}"));
  EXPECT_FALSE(json_validate("[1 2]"));
  EXPECT_FALSE(json_validate("01"));
  EXPECT_FALSE(json_validate("\"unterminated"));
  EXPECT_FALSE(json_validate("nul"));
  EXPECT_FALSE(json_validate("{} extra"));
}

TEST(ObsJson, EscapeRoundTrip) {
  const std::string escaped = json_escape("a\"b\\c\nd\te\x01");
  EXPECT_TRUE(json_validate("\"" + escaped + "\""));
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(ObsJson, ObjectFieldsExtraction) {
  auto f = json_object_fields(
      "{\"a\": 1.5, \"b\":\"x\\ny\", \"c\":[1,2], \"d\":{\"e\":0}}");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f["a"], "1.5");
  EXPECT_DOUBLE_EQ(json_raw_number(f["a"]), 1.5);
  EXPECT_EQ(json_raw_string(f["b"]), "x\ny");
  EXPECT_EQ(f["c"], "[1,2]");
  EXPECT_EQ(f["d"], "{\"e\":0}");
}

TEST(ObsJson, ObjectFieldsRejectsNonObjects) {
  EXPECT_TRUE(json_object_fields("[1,2]").empty());
  EXPECT_TRUE(json_object_fields("{bad").empty());
  EXPECT_TRUE(json_object_fields("").empty());
}

TEST(ObsJson, RawValueHelpers) {
  EXPECT_DOUBLE_EQ(json_raw_number("-2.5e1"), -25.0);
  EXPECT_DOUBLE_EQ(json_raw_number("\"str\"", -1.0), -1.0);
  EXPECT_EQ(json_raw_string("\"esc\\u00e9\""), "esc\xc3\xa9");
  EXPECT_EQ(json_raw_string("12", "fb"), "fb");
}

TEST(ObsJson, ArrayItemsSplitsTopLevelElements) {
  const auto items = json_array_items("[{\"a\":1}, 2, \"x,y\", [3,4]]");
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0], "{\"a\":1}");
  EXPECT_EQ(items[1], "2");
  // Commas inside strings and nested arrays must not split elements.
  EXPECT_EQ(items[2], "\"x,y\"");
  EXPECT_EQ(items[3], "[3,4]");
}

TEST(ObsJson, ArrayItemsHandlesNestingAndEscapes) {
  const auto items =
      json_array_items("[{\"s\":\"br]ace \\\" quote\",\"n\":[{\"k\":0}]}]");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(json_validate(items[0]));
}

TEST(ObsJson, ArrayItemsEmptyOrInvalidYieldsNothing) {
  EXPECT_TRUE(json_array_items("[]").empty());
  EXPECT_TRUE(json_array_items("  [ ]  ").empty());
  EXPECT_TRUE(json_array_items("{\"a\":1}").empty());
  EXPECT_TRUE(json_array_items("").empty());
  EXPECT_TRUE(json_array_items("[1,2").empty());
}

// ---------------------------------------------------------------------------
// Trace emitter
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledByDefaultAndEventsAreNoOps) {
  set_trace_path("");
  EXPECT_FALSE(trace_enabled());
  TraceEvent ev("noop");
  ev.field("x", 1.0).field("s", "y");
  ev.emit();  // must not crash or write anywhere
}

TEST(ObsTrace, JsonlRoundTrip) {
  const std::string path = std::string(::testing::TempDir()) + "/afl_obs_trace.jsonl";
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());
  {
    TraceEvent ev("unit_test");
    ev.field("count", std::uint64_t{3})
        .field("ratio", 0.5)
        .field("neg", std::int64_t{-7})
        .field("flag", true)
        .field("name", "quoted \"value\"")
        .field("vec", std::vector<double>{1.0, 2.5});
    ev.emit();
  }
  { TraceSpan span("unit_span"); }  // dur_ms attached on destruction
  set_trace_path("");  // close so the file is flushed and reopenable
  EXPECT_FALSE(trace_enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(json_validate(l)) << l;
    EXPECT_NE(l.find("\"ts_ms\":"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"kind\":\"unit_test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"count\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"vec\":[1,2.5]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"unit_span\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"dur_ms\":"), std::string::npos);
  std::remove(path.c_str());
}

// A parallel section whose task throws still writes, in task order, the
// records of every task that ran: the buffers write from their destructor.
TEST(ObsTrace, CapturedRecordsReachTheSinkInTaskOrderWhenATaskThrows) {
  constexpr std::size_t kTasks = 8;
  constexpr std::size_t kThrowing = 3;
  for (std::size_t threads : {1, 3}) {
    const std::string path = std::string(::testing::TempDir()) + "/afl_obs_capture.jsonl";
    set_trace_path(path);
    ThreadPool pool(threads);
    EXPECT_THROW(
        {
          TraceBuffers records(kTasks);
          pool.parallel_for(kTasks, [&](std::size_t i) {
            const TraceCapture capture(records[i]);
            TraceEvent("capture_test").field("task", static_cast<std::uint64_t>(i)).emit();
            if (i == kThrowing) throw std::runtime_error("task failed");
          });
        },
        std::runtime_error);
    set_trace_path("");

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    // Inline, the loop stops at the throwing task; workers run every task.
    const std::size_t ran = threads == 1 ? kThrowing + 1 : kTasks;
    ASSERT_EQ(lines.size(), ran) << threads << " threads";
    for (std::size_t i = 0; i < ran; ++i) {
      EXPECT_NE(lines[i].find("\"task\":" + std::to_string(i) + "}"), std::string::npos)
          << lines[i];
    }
    std::remove(path.c_str());
  }
}

TEST(ObsTrace, NowMsIsMonotonic) {
  const double a = trace_now_ms();
  const double b = trace_now_ms();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace afl::obs
