#pragma once
// Persisted benchmark snapshots: every bench binary can write one
// schema-versioned BENCH_<name>.json describing what it measured — config,
// scale, per-section wall times, hardware counters (cycles / instructions /
// IPC when perf_event_open works, see perf_counters.hpp), throughput
// metrics, and the git revision. `afl-insight bench show|diff` consumes
// these files, and CI diffs fresh snapshots against the checked-in baselines
// under bench/baselines/ — the persisted perf trajectory of the repo.
//
// Output destination (first match wins):
//   1. --out <path> / -o <path> on the bench command line (consumed),
//   2. the AFL_BENCH_JSON environment variable,
//   3. none: the report is disabled and write() is a no-op.
// A path naming a directory (existing, or ending in '/') receives
// BENCH_<name>.json inside it; anything else is used verbatim.
//
// Schema afl.bench.v1:
// {
//   "schema": "afl.bench.v1", "bench": "<name>", "scale": "smoke",
//   "git": "<describe>", "host_cores": N, "counters": true|false,
//   "config": {"rounds": 6, ...},
//   "sections": [{"name": "...", "wall_seconds": 1.2,
//                 "cycles": ..., "instructions": ..., "ipc": ...,   (optional)
//                 "cache_references": ..., "cache_misses": ...,
//                 "branch_misses": ...,
//                 "metrics": {"rounds_per_sec": 5.0, ...}}]
// }

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/prof/perf_counters.hpp"

namespace afl::obs::prof {

/// One timed region of a bench run.
struct BenchSection {
  std::string name;
  double wall_seconds = 0.0;
  HwSample hw_begin, hw_end;  // cumulative samples bracketing the section
  std::map<std::string, double> metrics;

  bool has_hw() const { return hw_begin.valid && hw_end.valid; }
  std::uint64_t hw_delta(std::size_t id) const;
};

class BenchReport {
 public:
  /// `name` becomes BENCH_<name>.json. Scans argv for --out/-o when given
  /// (removing the pair so later arg parsing never sees it), then falls back
  /// to AFL_BENCH_JSON.
  explicit BenchReport(std::string name, int* argc = nullptr,
                       char** argv = nullptr);
  /// Writes on destruction when enabled and not yet written.
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void set_scale(const std::string& scale) { scale_ = scale; }
  void set_config(const std::string& key, double value);
  void set_config(const std::string& key, const std::string& value);

  /// RAII section: measures wall time and a hardware-counter delta between
  /// construction and close()/destruction on the calling thread.
  class Scoped {
   public:
    Scoped(BenchReport& report, std::string name);
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    /// Ends the measurement early (destructor then does nothing).
    void close();

   private:
    BenchReport& report_;
    BenchSection section_;
    double start_ = 0.0;
    bool open_ = true;
  };

  /// Non-RAII alternative for pre-measured numbers.
  void add_section(const std::string& name, double wall_seconds,
                   std::map<std::string, double> metrics = {});

  const std::vector<BenchSection>& sections() const { return sections_; }

  /// Serializes and writes the snapshot. Returns false (with a stderr
  /// warning) when the file cannot be written; true when written or when
  /// the report is disabled.
  bool write();

  /// The JSON document (valid regardless of enabled()).
  std::string to_json() const;

  /// `git describe --always --dirty` of the working tree, or "unknown".
  static std::string git_describe();

 private:
  friend class Scoped;
  std::string name_;
  std::string path_;
  std::string scale_;
  std::vector<std::pair<std::string, std::string>> config_;  // key -> raw JSON
  std::vector<BenchSection> sections_;
  bool written_ = false;
};

}  // namespace afl::obs::prof
