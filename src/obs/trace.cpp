#include "obs/trace.hpp"

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#ifdef _WIN32
#include <io.h>
#define AFL_FSYNC _commit
#define AFL_FILENO _fileno
#else
#include <unistd.h>
#define AFL_FSYNC fsync
#define AFL_FILENO fileno
#endif

#include "obs/json.hpp"

namespace afl::obs {
namespace {

using clock = std::chrono::steady_clock;

clock::time_point process_start() {
  static const clock::time_point start = clock::now();
  return start;
}

/// File descriptor of the open trace sink, readable from a signal handler.
/// -1 = no sink. Kept outside TraceState so the fatal-signal hook needs no
/// locks or heap access (both unsafe in signal context).
std::atomic<int> g_trace_fd{-1};

/// Extra flush callbacks (metrics sinks etc.), run from the atexit hook only
/// — ordinary code, so they may lock and allocate. Fixed-size slots: hook
/// registration is rare (a handful per process) and a vector would need a
/// heap that might already be torn down at exit time.
constexpr std::size_t kMaxFlushHooks = 8;
std::atomic<TraceFlushHook> g_flush_hooks[kMaxFlushHooks] = {};
std::atomic<std::size_t> g_flush_hook_count{0};

void run_flush_hooks() {
  const std::size_t n = g_flush_hook_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n && i < kMaxFlushHooks; ++i) {
    TraceFlushHook hook = g_flush_hooks[i].load(std::memory_order_acquire);
    if (hook != nullptr) hook();
  }
}

void atexit_flush() {
  run_flush_hooks();
  flush_trace_sink();
}

/// Fatal-signal hook: push the trace tail to stable storage, then restore the
/// default disposition and re-raise so the process still dies with the right
/// status/core. Only async-signal-safe calls allowed here: fsync on a cached
/// fd qualifies; fflush/mutexes do not (write_line fflushes per line, so the
/// stdio buffer is empty except for a line racing the crash).
void fatal_signal_flush(int signo) {
  const int fd = g_trace_fd.load(std::memory_order_relaxed);
  if (fd >= 0) AFL_FSYNC(fd);
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

void install_flush_hooks() {
  static bool installed = false;  // guarded by TraceState::mu at call sites
  if (installed) return;
  installed = true;
  std::atexit(atexit_flush);
  static const int kFatalSignals[] = {SIGSEGV, SIGFPE, SIGILL, SIGABRT,
                                      SIGTERM, SIGINT,
#ifndef _WIN32
                                      SIGBUS
#endif
  };
  for (int signo : kFatalSignals) std::signal(signo, fatal_signal_flush);
}

struct TraceState {
  std::mutex mu;
  std::FILE* out = nullptr;
  std::atomic<bool> enabled{false};

  TraceState() {
    process_start();  // pin the timebase as early as possible
    const char* env = std::getenv("AFL_TRACE_JSONL");
    if (env != nullptr && env[0] != '\0') open(env);
  }

  void open(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu);
    if (out != nullptr) {
      std::fclose(out);
      out = nullptr;
      g_trace_fd.store(-1, std::memory_order_relaxed);
    }
    if (path.empty()) {
      enabled.store(false, std::memory_order_relaxed);
      return;
    }
    out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "[WARN] obs: cannot open trace file %s; tracing disabled\n",
                   path.c_str());
      enabled.store(false, std::memory_order_relaxed);
      return;
    }
    g_trace_fd.store(AFL_FILENO(out), std::memory_order_relaxed);
    install_flush_hooks();
    enabled.store(true, std::memory_order_relaxed);
  }

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    if (out == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
    std::fflush(out);  // trace volume is low (control-plane events, not kernels)
  }

  void flush() {
    std::lock_guard<std::mutex> lock(mu);
    if (out == nullptr) return;
    std::fflush(out);
    AFL_FSYNC(AFL_FILENO(out));
  }
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: usable during shutdown
  return *s;
}

/// This thread's open TraceCapture, if any.
thread_local std::vector<std::string>* t_capture = nullptr;

void write_record(std::string record) {
  if (t_capture != nullptr) {
    t_capture->push_back(std::move(record));
  } else {
    state().write_line(record);
  }
}

void append_number(std::string& buf, double v) {
  if (!std::isfinite(v)) {
    buf += '0';
    return;
  }
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "%.6g", v);
  buf += tmp;
}

}  // namespace

bool trace_enabled() { return state().enabled.load(std::memory_order_relaxed); }

void set_trace_path(const std::string& path) { state().open(path); }

void flush_trace_sink() { state().flush(); }

void run_trace_flush_hooks() { run_flush_hooks(); }

bool add_trace_flush_hook(TraceFlushHook hook) {
  if (hook == nullptr) return false;
  std::lock_guard<std::mutex> lock(state().mu);
  install_flush_hooks();
  const std::size_t n = g_flush_hook_count.load(std::memory_order_relaxed);
  if (n >= kMaxFlushHooks) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (g_flush_hooks[i].load(std::memory_order_relaxed) == hook) return true;
  }
  g_flush_hooks[n].store(hook, std::memory_order_release);
  g_flush_hook_count.store(n + 1, std::memory_order_release);
  return true;
}

double trace_now_ms() {
  return std::chrono::duration<double, std::milli>(clock::now() - process_start())
      .count();
}

TraceEvent::TraceEvent(std::string_view kind) : enabled_(trace_enabled()) {
  if (!enabled_) return;
  buf_.reserve(160);
  buf_ += "{\"ts_ms\":";
  append_number(buf_, trace_now_ms());
  buf_ += ",\"kind\":\"";
  buf_ += json_escape(kind);
  buf_ += '"';
}

TraceEvent::~TraceEvent() { emit(); }

TraceEvent& TraceEvent::field(std::string_view key, double v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":";
  append_number(buf_, v);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::uint64_t v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":";
  buf_ += std::to_string(v);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::int64_t v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":";
  buf_ += std::to_string(v);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, bool v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":";
  buf_ += v ? "true" : "false";
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::string_view v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":\"";
  buf_ += json_escape(v);
  buf_ += '"';
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, const std::vector<double>& v) {
  if (!enabled_) return *this;
  buf_ += ",\"";
  buf_ += json_escape(key);
  buf_ += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) buf_ += ',';
    append_number(buf_, v[i]);
  }
  buf_ += ']';
  return *this;
}

void TraceEvent::emit() {
  if (!enabled_ || emitted_) return;
  emitted_ = true;
  buf_ += '}';
  write_record(std::move(buf_));
}

TraceCapture::TraceCapture(std::vector<std::string>& records) : outer_(t_capture) {
  t_capture = &records;
}

TraceCapture::~TraceCapture() { t_capture = outer_; }

TraceBuffers::~TraceBuffers() {
  for (std::vector<std::string>& records : buffers_) {
    for (std::string& record : records) write_record(std::move(record));
  }
}

TraceSpan::~TraceSpan() {
  if (ev_.enabled()) {
    ev_.field("dur_ms", std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }
  ev_.emit();
}

}  // namespace afl::obs
