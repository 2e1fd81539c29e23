#pragma once
// Scoped-span profiler: where do the cycles go? ProfileSpan is the one scoped
// timer in the runtime.
//
// AFL_PROFILE=1 (or set_profiling(true)) arms the profiler; with it off a
// ProfileSpan costs one relaxed atomic load, so the hot paths stay
// instrumented permanently (tensor kernels, engine phases, codec, checkpoint
// I/O) without perturbing production runs — RunResult stays byte-identical
// either way, profiling only ever *observes*.
//
// A span may also carry a Histogram. Such a span always times its scope, armed
// or not, records the seconds into the histogram once at scope exit, and
// reports them so far through seconds(). Use one on paths whose work dwarfs
// two clock reads (local training, aggregation, evaluation, pruning).
//
// Each thread keeps a stack of active spans, so nesting attributes time
// hierarchically: a span's `wall` is its total inclusive time, its `self` is
// wall minus the wall of its direct children. Per span name the profiler
// aggregates count, wall, self, thread-CPU time, and (when the host allows
// perf_event_open — see perf_counters.hpp) a hardware-counter delta:
// cycles, instructions, cache references/misses, branch misses.
//
// Aggregates are exported four ways:
//   - snapshot() / render_table() / print_report() for code and stderr,
//   - publish() into a metrics Registry (-> Prometheus /metrics and
//     /metrics.json via the existing exposition layer),
//   - emit_trace_records(): one `profile` record per span in AFL_TRACE_JSONL.
// The FL runtime publishes + emits automatically at run end and prints the
// table at process exit (see docs/PROFILING.md).

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof/perf_counters.hpp"

namespace afl::obs::prof {

/// Is the profiler armed? First call reads AFL_PROFILE (env_switch: 1 arms
/// it; unset, empty or 0 leaves it off; anything else warns and leaves it off).
bool profiling_enabled();
void set_profiling(bool on);

/// Aggregated statistics of one span name, merged across threads.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double wall_seconds = 0.0;  // inclusive
  double self_seconds = 0.0;  // wall minus direct children
  double cpu_seconds = 0.0;   // thread CPU time, inclusive
  std::array<std::uint64_t, kNumHwCounters> hw{};
  std::uint32_t hw_mask = 0;  // which hw slots counted (0 = clock-only)

  bool has_hw(std::size_t id) const { return (hw_mask >> id) & 1u; }
  /// Instructions per cycle; 0 when either counter is missing.
  double ipc() const;
};

/// RAII span. `name` must outlive the profiler (string literals in
/// practice). Without a histogram it is a no-op while profiling is off.
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name, Histogram* hist = nullptr);
  ~ProfileSpan();
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

  /// Seconds elapsed so far (the value recorded into the histogram at scope
  /// exit). Meaningful only for a span that carries a histogram.
  double seconds() const;

 private:
  Histogram* hist_;
  bool active_;
  std::uint64_t start_ns_ = 0;
};

/// Merged per-span aggregates, sorted by total wall time descending.
std::vector<SpanStats> snapshot();

/// Drops every aggregate (the arming state is untouched).
void reset();

/// Were any spans recorded since the last reset()?
bool has_data();

/// Writes the aggregates into `registry` as gauges:
/// afl.prof.<span>.count / .wall.seconds / .self.seconds / .cpu.seconds,
/// plus .cycles / .instructions / .ipc when hardware counters ran.
/// Re-publishing after Registry::reset() restores the values — the profiler
/// keeps its own state.
void publish(Registry& registry);

/// Emits one `profile` trace record per span into AFL_TRACE_JSONL
/// (no-op when tracing is off).
void emit_trace_records();

/// Markdown-ish fixed-width table of snapshot(); "" when no data.
std::string render_table();

/// Prints render_table() to `out` with a header, plus the counter
/// availability notice. No-op when profiling never recorded anything.
void print_report(std::FILE* out = stderr);

}  // namespace afl::obs::prof

/// Convenience macro so call sites read as one line: AFL_PROF_SPAN(name) or
/// AFL_PROF_SPAN(name, &histogram). Name must be a literal.
#define AFL_PROF_CONCAT_INNER(a, b) a##b
#define AFL_PROF_CONCAT(a, b) AFL_PROF_CONCAT_INNER(a, b)
#define AFL_PROF_SPAN(...) \
  ::afl::obs::prof::ProfileSpan AFL_PROF_CONCAT(afl_prof_span_, __LINE__)(__VA_ARGS__)
