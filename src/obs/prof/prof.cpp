#include "obs/prof/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace afl::obs::prof {
namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_now_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

/// Running totals of one span name on one thread (or orphaned from an exited
/// thread).
struct Accum {
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::array<std::uint64_t, kNumHwCounters> hw{};
  std::uint32_t hw_mask = 0;

  void merge(const Accum& o) {
    count += o.count;
    wall_ns += o.wall_ns;
    self_ns += o.self_ns;
    cpu_ns += o.cpu_ns;
    for (std::size_t i = 0; i < kNumHwCounters; ++i) hw[i] += o.hw[i];
    hw_mask |= o.hw_mask;
  }
};

/// One live span on a thread's stack.
struct Frame {
  const char* name;
  std::uint64_t cpu_start;
  HwSample hw_start;
  std::uint64_t child_wall_ns = 0;
};

struct ThreadState;

/// Process-wide profiler state. Leaked so exit-time reporting stays safe.
struct Global {
  std::mutex mu;
  std::vector<ThreadState*> threads;
  std::map<std::string, Accum> orphans;  // flushed from exited threads
};

Global& global() {
  static Global* g = new Global();
  return *g;
}

struct ThreadState {
  std::mutex mu;  // guards accum against snapshot() readers
  std::unordered_map<const char*, Accum> accum;
  std::vector<Frame> stack;

  ThreadState() {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.threads.push_back(this);
  }

  ~ThreadState() {
    // Thread is going away: move its totals into the orphan pool so
    // snapshot() keeps seeing them (lock order: global before thread).
    Global& g = global();
    std::lock_guard<std::mutex> glock(g.mu);
    std::lock_guard<std::mutex> tlock(mu);
    for (const auto& [name, a] : accum) g.orphans[name].merge(a);
    g.threads.erase(std::remove(g.threads.begin(), g.threads.end(), this),
                    g.threads.end());
  }
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

// -1 = unresolved (read AFL_PROFILE on first query), 0 = off, 1 = on.
std::atomic<int> g_enabled{-1};
std::atomic<bool> g_report_armed{false};

void report_at_exit() { print_report(stderr); }

void arm_report_at_exit() {
  if (!g_report_armed.exchange(true)) std::atexit(report_at_exit);
}

}  // namespace

bool profiling_enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    static const bool on = env_switch("AFL_PROFILE", false);  // warns once
    int expected = -1;
    if (g_enabled.compare_exchange_strong(expected, on ? 1 : 0)) {
      if (on) arm_report_at_exit();
      v = on ? 1 : 0;
    } else {
      v = expected;
    }
  }
  return v > 0;
}

void set_profiling(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  if (on) arm_report_at_exit();
}

ProfileSpan::ProfileSpan(const char* name, Histogram* hist)
    : hist_(hist), active_(profiling_enabled()) {
  if (!active_) {
    if (hist_ != nullptr) start_ns_ = wall_now_ns();
    return;
  }
  ThreadState& ts = thread_state();
  Frame f;
  f.name = name;
  HwCounterGroup* hw = thread_counters();
  if (hw != nullptr) f.hw_start = hw->read();
  f.cpu_start = cpu_now_ns();
  ts.stack.push_back(f);
  start_ns_ = wall_now_ns();  // last: exclude the setup above from wall
}

double ProfileSpan::seconds() const {
  return static_cast<double>(wall_now_ns() - start_ns_) * 1e-9;
}

ProfileSpan::~ProfileSpan() {
  if (!active_) {
    if (hist_ != nullptr) hist_->record(seconds());
    return;
  }
  const std::uint64_t wall = wall_now_ns() - start_ns_;  // steady: never negative
  const std::uint64_t cpu_end = cpu_now_ns();
  if (hist_ != nullptr) hist_->record(static_cast<double>(wall) * 1e-9);
  ThreadState& ts = thread_state();
  if (ts.stack.empty()) return;  // defensive; RAII keeps the stack LIFO
  Frame f = ts.stack.back();
  ts.stack.pop_back();

  const std::uint64_t cpu = cpu_end > f.cpu_start ? cpu_end - f.cpu_start : 0;
  if (!ts.stack.empty()) ts.stack.back().child_wall_ns += wall;

  Accum delta;
  delta.count = 1;
  delta.wall_ns = wall;
  delta.self_ns = wall > f.child_wall_ns ? wall - f.child_wall_ns : 0;
  delta.cpu_ns = cpu;
  if (f.hw_start.valid) {
    HwCounterGroup* hw = thread_counters();
    if (hw != nullptr) {
      const HwSample end = hw->read();
      if (end.valid) {
        delta.hw_mask = end.mask & f.hw_start.mask;
        for (std::size_t i = 0; i < kNumHwCounters; ++i) {
          if ((delta.hw_mask >> i) & 1u) {
            delta.hw[i] = end.v[i] > f.hw_start.v[i] ? end.v[i] - f.hw_start.v[i] : 0;
          }
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(ts.mu);
  ts.accum[f.name].merge(delta);
}

double SpanStats::ipc() const {
  if (!has_hw(kHwCycles) || !has_hw(kHwInstructions) || hw[kHwCycles] == 0) {
    return 0.0;
  }
  return static_cast<double>(hw[kHwInstructions]) /
         static_cast<double>(hw[kHwCycles]);
}

std::vector<SpanStats> snapshot() {
  std::map<std::string, Accum> merged;
  {
    Global& g = global();
    std::lock_guard<std::mutex> glock(g.mu);
    merged = g.orphans;
    for (ThreadState* ts : g.threads) {
      std::lock_guard<std::mutex> tlock(ts->mu);
      for (const auto& [name, a] : ts->accum) merged[name].merge(a);
    }
  }
  std::vector<SpanStats> out;
  out.reserve(merged.size());
  for (const auto& [name, a] : merged) {
    SpanStats s;
    s.name = name;
    s.count = a.count;
    s.wall_seconds = static_cast<double>(a.wall_ns) * 1e-9;
    s.self_seconds = static_cast<double>(a.self_ns) * 1e-9;
    s.cpu_seconds = static_cast<double>(a.cpu_ns) * 1e-9;
    s.hw = a.hw;
    s.hw_mask = a.hw_mask;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.wall_seconds > b.wall_seconds ||
           (a.wall_seconds == b.wall_seconds && a.name < b.name);
  });
  return out;
}

void reset() {
  Global& g = global();
  std::lock_guard<std::mutex> glock(g.mu);
  g.orphans.clear();
  for (ThreadState* ts : g.threads) {
    std::lock_guard<std::mutex> tlock(ts->mu);
    ts->accum.clear();
  }
}

bool has_data() {
  Global& g = global();
  std::lock_guard<std::mutex> glock(g.mu);
  if (!g.orphans.empty()) return true;
  for (ThreadState* ts : g.threads) {
    std::lock_guard<std::mutex> tlock(ts->mu);
    if (!ts->accum.empty()) return true;
  }
  return false;
}

void publish(Registry& registry) {
  for (const SpanStats& s : snapshot()) {
    const std::string base = "afl.prof." + s.name;
    registry.gauge(base + ".count").set(static_cast<double>(s.count));
    registry.gauge(base + ".wall.seconds").set(s.wall_seconds);
    registry.gauge(base + ".self.seconds").set(s.self_seconds);
    registry.gauge(base + ".cpu.seconds").set(s.cpu_seconds);
    if (s.has_hw(kHwCycles)) {
      registry.gauge(base + ".cycles").set(static_cast<double>(s.hw[kHwCycles]));
    }
    if (s.has_hw(kHwInstructions)) {
      registry.gauge(base + ".instructions")
          .set(static_cast<double>(s.hw[kHwInstructions]));
    }
    if (s.ipc() > 0.0) registry.gauge(base + ".ipc").set(s.ipc());
  }
}

void emit_trace_records() {
  if (!trace_enabled()) return;
  for (const SpanStats& s : snapshot()) {
    TraceEvent ev("profile");
    ev.field("span", std::string_view(s.name))
        .field("count", static_cast<std::uint64_t>(s.count))
        .field("wall_ms", s.wall_seconds * 1e3)
        .field("self_ms", s.self_seconds * 1e3)
        .field("cpu_ms", s.cpu_seconds * 1e3);
    for (std::size_t i = 0; i < kNumHwCounters; ++i) {
      if (s.has_hw(i)) ev.field(hw_counter_name(i), s.hw[i]);
    }
    if (s.ipc() > 0.0) ev.field("ipc", s.ipc());
    ev.emit();
  }
}

std::string render_table() {
  const std::vector<SpanStats> spans = snapshot();
  if (spans.empty()) return "";
  const bool any_hw =
      std::any_of(spans.begin(), spans.end(),
                  [](const SpanStats& s) { return s.hw_mask != 0; });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %10s %11s %11s %11s", "span",
                "count", "wall s", "self s", "cpu s");
  out += line;
  if (any_hw) {
    std::snprintf(line, sizeof(line), " %14s %14s %6s", "cycles",
                  "instructions", "ipc");
    out += line;
  }
  out += '\n';
  for (const SpanStats& s : spans) {
    std::snprintf(line, sizeof(line), "%-24s %10llu %11.4f %11.4f %11.4f",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.wall_seconds, s.self_seconds, s.cpu_seconds);
    out += line;
    if (any_hw) {
      if (s.has_hw(kHwCycles) && s.has_hw(kHwInstructions)) {
        std::snprintf(line, sizeof(line), " %14llu %14llu %6.2f",
                      static_cast<unsigned long long>(s.hw[kHwCycles]),
                      static_cast<unsigned long long>(s.hw[kHwInstructions]),
                      s.ipc());
      } else {
        std::snprintf(line, sizeof(line), " %14s %14s %6s", "-", "-", "-");
      }
      out += line;
    }
    out += '\n';
  }
  return out;
}

void print_report(std::FILE* out) {
  if (!has_data()) return;
  std::fprintf(out, "\n-- profile spans (AFL_PROFILE=1; self = wall minus children) --\n");
  std::fprintf(out, "%s", render_table().c_str());
  if (!counters_available()) {
    const char* reason = counters_unavailable_reason();
    std::fprintf(out, "hardware counters: unavailable%s%s%s\n",
                 reason[0] ? " (" : "", reason, reason[0] ? ")" : "");
  }
}

}  // namespace afl::obs::prof
