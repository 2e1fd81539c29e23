#pragma once
// Shared federated-run configuration and result types.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/build.hpp"
#include "arch/spec.hpp"
#include "async/config.hpp"
#include "data/federated.hpp"
#include "fl/comm.hpp"
#include "fl/local_train.hpp"
#include "hier/config.hpp"
#include "net/transport.hpp"
#include "nn/param.hpp"
#include "pop/config.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl {

struct FlRunConfig {
  std::size_t rounds = 20;
  std::size_t clients_per_round = 10;  // K (paper: 10% of the population)
  LocalTrainConfig local;              // paper: 5 epochs, batch 50, SGD .01/.5
  std::uint64_t seed = 1;
  std::size_t eval_every = 1;  // evaluate the global model every N rounds (0 = final only)
  /// Test samples per evaluation chunk; the chunks of each evaluated model
  /// spread over the engine's thread pool (docs/ENGINE.md). Small chunks keep
  /// each conv layer's im2col matrix cache-resident.
  std::size_t eval_batch = 16;
  /// Worker threads for client training and evaluation chunks (see
  /// docs/ENGINE.md).
  /// 0 = resolve from the AFL_THREADS environment variable (default 1). The
  /// RunResult curve is bit-identical for every thread count.
  std::size_t threads = 0;
  /// Simulated transport configuration (see docs/NET.md). nullopt = resolve
  /// from the AFL_NET_* environment variables; an explicit disabled config
  /// forces the identity path regardless of the environment.
  std::optional<net::NetConfig> net;
  /// Event-driven async aggregation (see docs/ASYNC.md). nullopt = resolve
  /// from the AFL_ASYNC_* environment variables; when enabled the run uses
  /// the buffered AsyncEngine instead of the synchronous round barrier and
  /// `rounds` counts buffer flushes.
  std::optional<async::AsyncConfig> async;
  /// Hierarchical multi-aggregator scale-out (see docs/HIERARCHY.md).
  /// nullopt = resolve from the AFL_HIER_* environment variables; when
  /// enabled the run partitions clients across edge aggregator shards whose
  /// coverage-mass partials merge at a root every sync_every rounds.
  std::optional<hier::HierConfig> hier;
  /// Population dynamics: churn + per-client channels (see
  /// docs/POPULATION.md). nullopt = resolve from the AFL_POP_* environment
  /// variables; a disabled config keeps the static fleet and every legacy
  /// RNG stream byte-identical.
  std::optional<pop::PopConfig> pop;

  /// Engine snapshot/resume (docs/POPULATION.md). Empty snapshot_path
  /// disables snapshotting entirely. nullopt fields resolve from the
  /// environment: AFL_SNAPSHOT (path), AFL_SNAPSHOT_EVERY (rounds between
  /// snapshots, default 1), AFL_STOP_AFTER (halt after round k, 0 = never),
  /// AFL_RESUME (path to resume from).
  std::optional<std::string> snapshot_path;
  std::optional<std::size_t> snapshot_every;
  std::optional<std::size_t> stop_after_round;
  std::optional<std::string> resume_from;
};

struct RoundRecord {
  std::size_t round = 0;
  double full_acc = 0.0;
  double avg_acc = 0.0;     // mean over the L1/M1/S1-style level submodels
  double comm_waste = 0.0;  // cumulative waste rate up to this round
  double round_waste = 0.0; // waste rate of this round alone (Fig. 5a style)
};

/// Telemetry snapshot of one federated round — where the wall time went, what
/// crossed the (simulated) network, and how concentrated the selector policy
/// is. Collected for every round regardless of eval_every.
struct RoundMetrics {
  std::size_t round = 0;
  double round_seconds = 0.0;      // whole round (dispatch..aggregate [+eval])
  double train_seconds = 0.0;      // sum of local-training wall time
  double aggregate_seconds = 0.0;
  double eval_seconds = 0.0;       // 0 on non-eval rounds
  std::size_t clients_ok = 0;
  std::size_t clients_failed = 0;  // no response or no trainable submodel
  std::size_t params_sent = 0;     // this round's dispatch traffic
  std::size_t params_returned = 0;
  double round_waste = 0.0;        // 1 - returned/sent for this round
  double selector_entropy = 0.0;   // AdaptiveFL only; 0 for other runners
  // Byte-layer telemetry; all zero unless the simulated transport (src/net/)
  // is configured for the run.
  std::size_t bytes_sent = 0;      // on-wire dispatch bytes (incl. retransmits)
  std::size_t bytes_returned = 0;  // on-wire return bytes (incl. retransmits)
  std::size_t retransmits = 0;     // retransmitted frames, both directions
  std::size_t stragglers = 0;      // clients excluded by the round deadline
  // Simulated-time telemetry; zero unless the transport models per-client
  // time (sync) or the run uses the async engine's virtual clock.
  double sim_seconds = 0.0;   // simulated duration of this round / flush window
  double virtual_time = 0.0;  // simulated clock at the end of the round
};

/// First simulated instant the run's evaluation curve crossed a fixed
/// accuracy threshold (the time-to-accuracy currency of async-FL papers).
struct TimeToAcc {
  double accuracy = 0.0;     // threshold crossed
  double sim_seconds = 0.0;  // simulated clock at the crossing eval point
  std::size_t round = 0;     // round / flush index of that eval point
};

struct RunResult {
  std::string algorithm;
  std::vector<RoundRecord> curve;
  double final_full_acc = 0.0;
  double final_avg_acc = 0.0;
  /// Final accuracy of each level submodel ("L1"/"M1"/"S1" or the baseline's
  /// equivalent labels), in descending size order.
  std::map<std::string, double> level_acc;
  CommStats comm;
  std::size_t failed_trainings = 0;
  double wall_seconds = 0.0;
  /// Total simulated seconds of the run (0 when nothing models time: no
  /// transport clock and not the async engine).
  double sim_seconds = 0.0;
  /// First crossings of the fixed accuracy thresholds (kTtaThresholds), in
  /// ascending threshold order; empty when the run tracked no simulated time.
  std::vector<TimeToAcc> time_to_acc;
  /// One entry per round, in order (see RoundMetrics).
  std::vector<RoundMetrics> round_metrics;

  /// Best accuracy over the evaluation curve (the convention FL papers use
  /// when reporting a method's accuracy; also robust to end-of-run wobble).
  double best_full_acc() const;
  double best_avg_acc() const;

  /// Writes the evaluation curve as CSV (round, full_acc, avg_acc,
  /// comm_waste, round_waste) for external plotting; throws
  /// std::runtime_error on I/O failure.
  void write_curve_csv(const std::string& path) const;

  /// Writes round_metrics as JSONL (one object per round, tagged with the
  /// algorithm name); throws std::runtime_error on I/O failure. With
  /// `append` the records are added to an existing file — how run_algorithm()
  /// accumulates several runs of one process into a single AFL_METRICS_JSONL
  /// sink. When time_to_acc is non-empty one extra "time_to_acc" record
  /// follows the per-round lines.
  void write_metrics_jsonl(const std::string& path, bool append = false) const;

  /// Records first crossings of the kTtaThresholds accuracy levels for an
  /// eval point at simulated time `sim_s` (engines call this after each
  /// evaluate() once their simulated clock is positive).
  void note_time_to_acc(double accuracy, double sim_s, std::size_t round);
};

/// Accuracy thresholds tracked by RunResult::note_time_to_acc. The low end
/// is dense because the miniature CPU substrate's smoke configs live there
/// (chance is 0.1 on the CIFAR-10 analogue; integration runs clear ~0.2).
inline constexpr double kTtaThresholds[] = {0.1, 0.15, 0.2, 0.3, 0.4,
                                            0.5, 0.6,  0.7, 0.8, 0.9};

/// Per-round telemetry collector shared by every runner. Scope one instance
/// over each round's body: the constructor marks the comm counters, the
/// destructor fills in the per-round comm deltas / wall time, appends the
/// record to result.round_metrics, feeds the afl.run.round.seconds histogram,
/// and emits a "round" trace event.
class RoundTelemetry {
 public:
  RoundTelemetry(RunResult& result, std::size_t round);
  ~RoundTelemetry();
  RoundTelemetry(const RoundTelemetry&) = delete;
  RoundTelemetry& operator=(const RoundTelemetry&) = delete;

  void client_ok() { m_.clients_ok++; }
  void client_failed() { m_.clients_failed++; }
  void add_train_seconds(double s) { m_.train_seconds += s; }
  void add_aggregate_seconds(double s) { m_.aggregate_seconds += s; }
  void add_eval_seconds(double s) { m_.eval_seconds += s; }
  void set_selector_entropy(double e) { m_.selector_entropy = e; }
  /// Marks the round as transport-backed: the destructor then fills the
  /// byte-layer fields from the comm deltas and adds them to the round trace
  /// event. Off by default so transportless traces stay byte-identical.
  void set_net_enabled(bool enabled) { net_enabled_ = enabled; }
  /// Simulated-time columns (sim_ms / virtual_time on the round trace event
  /// and RoundMetrics). Only runs that model time call this, so traces of
  /// clockless runs stay byte-identical.
  void set_sim_time(double round_sim_s, double virtual_time) {
    m_.sim_seconds = round_sim_s;
    m_.virtual_time = virtual_time;
    has_sim_ = true;
  }

 private:
  RunResult& result_;
  RoundMetrics m_;
  Stopwatch watch_;
  bool net_enabled_ = false;
  bool has_sim_ = false;
};

/// Evaluates a parameter set by materializing its model, once per
/// eval_batch chunk of `test`, on `workers` (see fl/evaluate.hpp).
double eval_params(const ArchSpec& spec, const WidthPlan& plan,
                   const BuildOptions& options, const ParamSet& params,
                   const Dataset& test, std::size_t eval_batch, ThreadPool& workers);

/// K distinct client indices drawn uniformly at random.
std::vector<std::size_t> sample_clients(std::size_t num_clients, std::size_t k,
                                        Rng& rng);

}  // namespace afl
