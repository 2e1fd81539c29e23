#pragma once
// Structured JSONL trace emitter. Every record is one JSON object per line
// with at least {"ts_ms": <ms since process start>, "kind": "<event kind>"};
// spans additionally carry "dur_ms". Tracing is off by default and enabled by
// pointing AFL_TRACE_JSONL at a file path (or programmatically via
// set_trace_path). When disabled, events cost one relaxed atomic load.
//
// Event kinds emitted by the FL runtime: round, dispatch, local_train,
// aggregate, evaluate, rl_update, rl_tables (see docs/OBSERVABILITY.md).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace afl::obs {

/// Fast check: is a trace sink attached?
bool trace_enabled();

/// Opens (truncating) `path` as the trace sink; empty path closes the sink
/// and disables tracing. Thread-safe. Opening a sink also registers the
/// atexit + fatal-signal flush hooks, so a truncated run still leaves an
/// analyzable trace on disk (docs/OBSERVABILITY.md).
void set_trace_path(const std::string& path);

/// Pushes any buffered trace output to stable storage (fflush + fsync).
/// Called automatically at exit and from the fatal-signal hook; safe to call
/// any time from ordinary (non-signal) context.
void flush_trace_sink();

/// Registers an extra sink-flush callback run by the atexit hook alongside
/// the trace flush (e.g. a metrics JSONL stream). Callbacks must be plain
/// function pointers, may lock/allocate (they never run in signal context),
/// and must be cheap + idempotent: the engines also refresh them at every
/// round boundary via run_trace_flush_hooks(), so a SIGKILL-style death —
/// which skips atexit — still leaves residue at most one round stale.
/// Returns false when the fixed hook table is full. Duplicate registrations
/// are collapsed.
using TraceFlushHook = void (*)();
bool add_trace_flush_hook(TraceFlushHook hook);

/// Runs every registered flush hook now (ordinary context, not the trace
/// sink itself). Called by the engines at round boundaries so crash residue
/// stays fresh even when the process dies without reaching atexit.
void run_trace_flush_hooks();

/// Milliseconds since process start (well, since the obs layer was first
/// touched) — the timebase of every trace record.
double trace_now_ms();

/// One trace record under construction. All field() calls are no-ops when
/// tracing is disabled; emit() writes the line (and is called by the
/// destructor if not invoked explicitly).
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view kind);
  ~TraceEvent();
  TraceEvent(const TraceEvent&) = delete;
  TraceEvent& operator=(const TraceEvent&) = delete;

  bool enabled() const { return enabled_; }

  TraceEvent& field(std::string_view key, double v);
  TraceEvent& field(std::string_view key, std::uint64_t v);
  TraceEvent& field(std::string_view key, std::int64_t v);
  TraceEvent& field(std::string_view key, int v) { return field(key, static_cast<std::int64_t>(v)); }
  TraceEvent& field(std::string_view key, bool v);
  TraceEvent& field(std::string_view key, std::string_view v);
  TraceEvent& field(std::string_view key, const char* v) { return field(key, std::string_view(v)); }
  TraceEvent& field(std::string_view key, const std::vector<double>& v);

  void emit();

 private:
  bool enabled_;
  bool emitted_ = false;
  std::string buf_;
};

/// Diverts the records this thread emits while the scope lives into
/// `records`, one complete line each with its creation-time ts_ms, instead
/// of the sink. The training wave holds one per dispatch over a TraceBuffers
/// slot, so records made on pool threads reach the trace in wave order, not
/// in scheduling order. Scopes nest.
class TraceCapture {
 public:
  explicit TraceCapture(std::vector<std::string>& records);
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

 private:
  std::vector<std::string>* outer_;
};

/// One record buffer per task of a parallel section, for that task's
/// TraceCapture. The destructor writes every buffer to the sink (or to an
/// enclosing capture) in task order, on the exception path too, so a section
/// that throws still leaves the records of the tasks that ran.
class TraceBuffers {
 public:
  explicit TraceBuffers(std::size_t tasks) : buffers_(tasks) {}
  ~TraceBuffers();
  TraceBuffers(const TraceBuffers&) = delete;
  TraceBuffers& operator=(const TraceBuffers&) = delete;

  std::vector<std::string>& operator[](std::size_t task) { return buffers_[task]; }

 private:
  std::vector<std::vector<std::string>> buffers_;
};

/// RAII span: emits its event with a "dur_ms" field on destruction.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view kind) : ev_(kind) {
    if (ev_.enabled()) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  template <typename T>
  TraceSpan& field(std::string_view key, const T& v) {
    ev_.field(key, v);
    return *this;
  }

 private:
  TraceEvent ev_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace afl::obs
