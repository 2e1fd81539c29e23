// Scoped-span profiler (obs/prof): aggregation, nesting/self-time, spans
// that carry a histogram, the clock-only fallback when hardware counters are
// unavailable, Registry publication (including the reset() interplay), and
// `profile` trace records. The profiler's no-observation guarantee
// (RunResult bit-identical with AFL_PROFILE on/off) is covered by the engine
// determinism suites.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace afl::obs::prof {
namespace {

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  std::atomic<int> sink{0};
  while (std::chrono::steady_clock::now() < until) {
    sink.fetch_add(1, std::memory_order_relaxed);
  }
}

const SpanStats* find(const std::vector<SpanStats>& spans, const std::string& name) {
  for (const SpanStats& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_profiling(true);
    reset();
  }
  void TearDown() override {
    set_profiling(false);
    reset();
  }
};

TEST_F(ProfTest, DisabledSpansRecordNothing) {
  set_profiling(false);
  {
    AFL_PROF_SPAN("prof_test.off");
    spin_for(std::chrono::microseconds(100));
  }
  EXPECT_FALSE(has_data());
  EXPECT_TRUE(snapshot().empty());
  EXPECT_EQ(render_table(), "");
}

TEST_F(ProfTest, HistogramSpanAlwaysTimesAndProfilesOnlyWhenArmed) {
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "armed" : "off");
    set_profiling(armed);
    Histogram hist;
    double seconds = 0.0;
    {
      ProfileSpan span("prof_test.hist", &hist);
      spin_for(std::chrono::microseconds(200));
      seconds = span.seconds();
    }
    EXPECT_GT(seconds, 0.0);
    EXPECT_EQ(hist.count(), 1u);  // one sample per scope, armed or not
    EXPECT_GE(hist.sum(), seconds);
    const std::vector<SpanStats> spans = snapshot();
    if (armed) {
      const SpanStats* s = find(spans, "prof_test.hist");
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->count, 1u);
    } else {
      EXPECT_TRUE(spans.empty());
    }
  }
}

TEST_F(ProfTest, AggregatesCountAndWall) {
  for (int i = 0; i < 5; ++i) {
    AFL_PROF_SPAN("prof_test.loop");
    spin_for(std::chrono::microseconds(200));
  }
  const std::vector<SpanStats> spans = snapshot();
  const SpanStats* s = find(spans, "prof_test.loop");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 5u);
  EXPECT_GT(s->wall_seconds, 0.0);
  // Leaf span: all time is self time.
  EXPECT_DOUBLE_EQ(s->wall_seconds, s->self_seconds);
}

TEST_F(ProfTest, NestingSplitsSelfFromTotal) {
  {
    AFL_PROF_SPAN("prof_test.outer");
    spin_for(std::chrono::microseconds(300));
    {
      AFL_PROF_SPAN("prof_test.inner");
      spin_for(std::chrono::microseconds(700));
    }
  }
  const std::vector<SpanStats> spans = snapshot();
  const SpanStats* outer = find(spans, "prof_test.outer");
  const SpanStats* inner = find(spans, "prof_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Outer wall covers inner wall; outer self excludes it.
  EXPECT_GE(outer->wall_seconds, inner->wall_seconds);
  EXPECT_LT(outer->self_seconds, outer->wall_seconds);
  EXPECT_NEAR(outer->self_seconds, outer->wall_seconds - inner->wall_seconds,
              1e-9);
}

TEST_F(ProfTest, CountersDisabledFallsBackToClocks) {
  const bool saved = counters_enabled();
  set_counters_enabled(false);
  {
    AFL_PROF_SPAN("prof_test.noctr");
    spin_for(std::chrono::microseconds(200));
  }
  set_counters_enabled(saved);
  const std::vector<SpanStats> spans = snapshot();
  const SpanStats* s = find(spans, "prof_test.noctr");
  ASSERT_NE(s, nullptr);
  // Clock-only: wall/CPU recorded, no hardware slots.
  EXPECT_GT(s->wall_seconds, 0.0);
  EXPECT_EQ(s->hw_mask, 0u);
  EXPECT_FALSE(s->has_hw(kHwCycles));
  EXPECT_DOUBLE_EQ(s->ipc(), 0.0);
}

TEST_F(ProfTest, MultiThreadSpansMergeIntoOneAggregate) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        AFL_PROF_SPAN("prof_test.mt");
        spin_for(std::chrono::microseconds(50));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Exited threads flush into the orphan pool; the totals must survive.
  const std::vector<SpanStats> spans = snapshot();
  const SpanStats* s = find(spans, "prof_test.mt");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(ProfTest, PublishSurvivesRegistryReset) {
  {
    AFL_PROF_SPAN("prof_test.pub");
    spin_for(std::chrono::microseconds(100));
  }
  Registry& reg = metrics();
  publish(reg);
  const std::string key = "afl.prof.prof_test.pub.count";
  EXPECT_DOUBLE_EQ(reg.gauge(key).value(), 1.0);
  EXPECT_GT(reg.gauge("afl.prof.prof_test.pub.wall.seconds").value(), 0.0);

  // Registry::reset() clears the exported gauges but not the profiler's own
  // aggregates: re-publishing restores the values.
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.gauge(key).value(), 0.0);
  publish(reg);
  EXPECT_DOUBLE_EQ(reg.gauge(key).value(), 1.0);
}

TEST_F(ProfTest, ResetDropsAggregates) {
  {
    AFL_PROF_SPAN("prof_test.reset");
  }
  EXPECT_TRUE(has_data());
  reset();
  EXPECT_FALSE(has_data());
  EXPECT_EQ(find(snapshot(), "prof_test.reset"), nullptr);
}

TEST_F(ProfTest, EmitTraceRecordsWritesValidProfileLines) {
  const std::string path = ::testing::TempDir() + "/prof_trace_test.jsonl";
  {
    AFL_PROF_SPAN("prof_test.trace");
    spin_for(std::chrono::microseconds(100));
  }
  set_trace_path(path);
  emit_trace_records();
  set_trace_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    ASSERT_TRUE(json_validate(line)) << line;
    const auto rec = json_object_fields(line);
    ASSERT_EQ(json_raw_string(rec.at("kind")), "profile");
    ASSERT_NE(rec.find("ts_ms"), rec.end());  // trace envelope contract
    if (json_raw_string(rec.at("span")) == "prof_test.trace") {
      found = true;
      EXPECT_EQ(json_raw_number(rec.at("count"), 0.0), 1.0);
      EXPECT_GT(json_raw_number(rec.at("wall_ms"), 0.0), 0.0);
    }
  }
  std::remove(path.c_str());
  EXPECT_TRUE(found);
}

TEST_F(ProfTest, RenderTableListsEverySpan) {
  {
    AFL_PROF_SPAN("prof_test.table_a");
  }
  {
    AFL_PROF_SPAN("prof_test.table_b");
  }
  const std::string table = render_table();
  EXPECT_NE(table.find("prof_test.table_a"), std::string::npos);
  EXPECT_NE(table.find("prof_test.table_b"), std::string::npos);
  EXPECT_NE(table.find("wall s"), std::string::npos);
}

}  // namespace
}  // namespace afl::obs::prof
