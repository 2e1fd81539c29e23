#include "obs/prof/bench_report.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/json.hpp"

namespace afl::obs::prof {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_directory(const std::string& path) {
  if (!path.empty() && path.back() == '/') return true;
  struct stat st;
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char tmp[40];
  // Round-trippable but compact; bench numbers are timings and rates.
  std::snprintf(tmp, sizeof(tmp), "%.9g", v);
  out += tmp;
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

}  // namespace

std::uint64_t BenchSection::hw_delta(std::size_t id) const {
  if (!has_hw() || !hw_begin.has(id) || !hw_end.has(id)) return 0;
  return hw_end.v[id] > hw_begin.v[id] ? hw_end.v[id] - hw_begin.v[id] : 0;
}

BenchReport::BenchReport(std::string name, int* argc, char** argv)
    : name_(std::move(name)) {
  std::string out;
  if (argc != nullptr && argv != nullptr) {
    for (int i = 1; i < *argc; ++i) {
      if ((std::strcmp(argv[i], "--out") == 0 || std::strcmp(argv[i], "-o") == 0) &&
          i + 1 < *argc) {
        out = argv[i + 1];
        // Splice the pair out so the binary's own arg parsing is unaffected.
        for (int j = i; j + 2 <= *argc; ++j) argv[j] = argv[j + 2];
        *argc -= 2;
        break;
      }
    }
  }
  if (out.empty()) {
    const char* env = std::getenv("AFL_BENCH_JSON");
    if (env != nullptr) out = env;
  }
  if (out.empty()) return;
  if (is_directory(out)) {
    if (out.back() != '/') out += '/';
    path_ = out + "BENCH_" + name_ + ".json";
  } else {
    path_ = out;
  }
}

BenchReport::~BenchReport() {
  if (enabled() && !written_) write();
}

void BenchReport::set_config(const std::string& key, double value) {
  std::string raw;
  append_number(raw, value);
  config_.emplace_back(key, raw);
}

void BenchReport::set_config(const std::string& key, const std::string& value) {
  std::string raw;
  append_string(raw, value);
  config_.emplace_back(key, raw);
}

BenchReport::Scoped::Scoped(BenchReport& report, std::string name)
    : report_(report) {
  section_.name = std::move(name);
  HwCounterGroup* hw = thread_counters();
  if (hw != nullptr) section_.hw_begin = hw->read();
  start_ = now_seconds();
}

void BenchReport::Scoped::close() {
  if (!open_) return;
  open_ = false;
  section_.wall_seconds = now_seconds() - start_;
  HwCounterGroup* hw = thread_counters();
  if (hw != nullptr) section_.hw_end = hw->read();
  report_.sections_.push_back(std::move(section_));
}

BenchReport::Scoped::~Scoped() { close(); }

void BenchReport::add_section(const std::string& name, double wall_seconds,
                              std::map<std::string, double> metrics) {
  BenchSection s;
  s.name = name;
  s.wall_seconds = wall_seconds;
  s.metrics = std::move(metrics);
  sections_.push_back(std::move(s));
}

std::string BenchReport::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"afl.bench.v1\",\"bench\":";
  append_string(out, name_);
  out += ",\"scale\":";
  append_string(out, scale_.empty() ? "unknown" : scale_);
  out += ",\"git\":";
  append_string(out, git_describe());
  out += ",\"host_cores\":";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ",\"counters\":";
  out += counters_available() ? "true" : "false";
  out += ",\"config\":{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i) out += ',';
    append_string(out, config_[i].first);
    out += ':';
    out += config_[i].second;
  }
  out += "},\"sections\":[";
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const BenchSection& s = sections_[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_string(out, s.name);
    out += ",\"wall_seconds\":";
    append_number(out, s.wall_seconds);
    if (s.has_hw()) {
      for (std::size_t c = 0; c < kNumHwCounters; ++c) {
        if (!s.hw_begin.has(c) || !s.hw_end.has(c)) continue;
        out += ",\"";
        out += hw_counter_name(c);
        out += "\":";
        out += std::to_string(s.hw_delta(c));
      }
      const std::uint64_t cycles = s.hw_delta(kHwCycles);
      const std::uint64_t instr = s.hw_delta(kHwInstructions);
      if (cycles > 0 && instr > 0) {
        out += ",\"ipc\":";
        append_number(out, static_cast<double>(instr) / static_cast<double>(cycles));
      }
    }
    out += ",\"metrics\":{";
    std::size_t j = 0;
    for (const auto& [key, value] : s.metrics) {
      if (j++) out += ',';
      append_string(out, key);
      out += ':';
      append_number(out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

bool BenchReport::write() {
  if (!enabled()) return true;
  written_ = true;
  std::ofstream f(path_, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "[obs.prof] cannot write bench snapshot %s\n",
                 path_.c_str());
    return false;
  }
  f << to_json() << '\n';
  f.close();
  if (!f) {
    std::fprintf(stderr, "[obs.prof] short write on bench snapshot %s\n",
                 path_.c_str());
    return false;
  }
  std::fprintf(stderr, "bench snapshot written to %s\n", path_.c_str());
  return true;
}

std::string BenchReport::git_describe() {
  std::FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace afl::obs::prof
