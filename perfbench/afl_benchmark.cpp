// Runtime benchmark for the AdaptiveFL simulator (README.md in this
// directory has the workloads, the metric tables and how to compare commits).
//
//   afl_benchmark --workload <train|eval|wire|scale> [--seed 7] [--seconds 30]
//                 [--trace 0|1] [--threads N]
//
// One invocation measures one workload, prints a table of its metrics (median,
// quartiles, sample count) and ends with one JSON line on stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
// The invoked process coordinates and trains nothing itself. Every FL run
// happens in a fresh child process of this binary
// (--child <workload> --threads T --seed S [--traced] [--warmup]), one at a
// time, so a run's peak RSS and allocator state are its own. Children get an
// environment without AFL_* variables, and every run pins FlRunConfig's
// threads, net, async, hier, pop and snapshot fields, so no shell setting
// changes a workload. The load is closed-loop batch work: each round waits
// for the previous one, each run for the previous run.
//
// Per-layer numbers come only from outside the library: RunResult, the
// obs::metrics() registry, the AFL_PROFILE spans the library already records
// (armed with set_profiling in traced children), and probes below that time
// calls into each module's public functions on the workload's own model.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/build.hpp"
#include "compress/compressor.hpp"
#include "core/experiment.hpp"
#include "fl/aggregate.hpp"
#include "fl/shard_aggregator.hpp"
#include "net/codec.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "rl/selector.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

extern char** environ;

namespace {

using namespace afl;

constexpr const char* kWorkloads[] = {"train", "eval", "wire", "scale"};

// Checks a run must pass besides thread-count invariance (README.md). The
// train check reads the mean accuracy of the L1, M1 and S1 submodels: after
// the workload's 22 short rounds the full model alone ranged from 0.15 to
// 0.37 over 40 seeds, too close to chance (0.1) to check, while the mean of
// the three ranged from 0.19 to 0.38.
constexpr double kTrainMinBestAvgAcc = 0.15;
constexpr double kWireMaxUplinkRatio = 0.2;
constexpr double kScaleMaxPeakRssMb = 512.0;

// The warm-up child stops after this many rounds: enough to load the binary
// and the data generator and to bring the cores up to speed, without
// spending a whole run's time on results that are discarded.
constexpr std::size_t kWarmupRounds = 2;

// Environment constructions timed per child for setup_s.
constexpr std::size_t kSetupRepeats = 3;

// A probe repeats its call until this much time is spent in it.
constexpr double kProbeSeconds = 0.1;

// The coordinator stops starting children, and kills a running one, this
// long after it started, so an invocation always ends well inside three
// minutes.
constexpr double kDeadlineSeconds = 150.0;

bool is_workload(const std::string& name) {
  return std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                      [&](const char* w) { return name == w; }) !=
         std::end(kWorkloads);
}

// ---------------------------------------------------------------------------
// Workloads. All use the CIFAR-10 analogue, MiniVGG, IID data, the 4:3:3 tier
// mix and AdaptiveFL+CS.
//
// --seed generates the data: the synthetic task, every client's shard and the
// test set. The device fleet and the run's RNG stream (model draws, client
// selection, capacities, transport and churn draws) come from kScheduleSeed,
// so every seed trains the same (client, submodel) schedule on different
// data, and the spread between seeds measures the system rather than the luck
// of the schedule.
constexpr std::uint64_t kScheduleSeed = 20240607;

// Every workload trains at batch 25 on 25 samples per client, the shape of
// the async_vs_sync, churn_storm, compression_tradeoff and hier_scaleout
// examples, and evaluates a test set of exactly one evaluation batch (256),
// so each GEMM and im2col has a shape the examples run. Rounds and clients
// per round are what is cut to fit the time.
ExperimentConfig workload_config(const std::string& w) {
  ExperimentConfig cfg;
  cfg.samples_per_client = 25;
  cfg.batch_size = 25;
  cfg.test_samples = 256;
  if (w == "train") {
    cfg.num_clients = 40;
    cfg.clients_per_round = 6;
    cfg.local_epochs = 2;
    cfg.rounds = 22;
    cfg.eval_every = cfg.rounds;
  } else if (w == "eval") {
    cfg.num_clients = 40;
    cfg.clients_per_round = 2;
    cfg.local_epochs = 1;
    cfg.rounds = 10;
    cfg.eval_every = 1;
  } else if (w == "wire") {
    cfg.num_clients = 100;
    cfg.clients_per_round = 8;
    cfg.local_epochs = 1;
    cfg.rounds = 16;
    cfg.eval_every = 8;
  } else if (w == "scale") {
    cfg.num_clients = 1000000;
    cfg.clients_per_round = 8;
    cfg.local_epochs = 1;
    cfg.image_hw = 8;
    cfg.rounds = 16;
    cfg.eval_every = cfg.rounds;
  } else {
    throw std::invalid_argument("unknown workload " + w);
  }
  return cfg;
}

/// make_env() on the data seed, with the fleet and the run's RNG stream
/// taken from kScheduleSeed instead. The scale workload keeps client shards
/// lazy (generated on demand inside execute(), as bench/bench_scaleout.cpp
/// does), so make_env builds a one-client environment for its spec, pool and
/// run fields and the lazy population replaces that client.
ExperimentEnv make_workload_env(const std::string& w, std::uint64_t seed) {
  ExperimentConfig cfg = workload_config(w);
  cfg.seed = seed;
  const bool lazy = w == "scale";
  ExperimentConfig eager = cfg;
  if (lazy) eager.num_clients = 1;
  ExperimentEnv env = make_env(eager);
  env.config = cfg;
  if (lazy) {
    Rng data_rng(seed);
    FederatedConfig fed;
    fed.num_clients = cfg.num_clients;
    fed.samples_per_client = cfg.samples_per_client;
    fed.test_samples = cfg.test_samples;
    env.data = make_federated_lazy(
        std::make_shared<const SyntheticTask>(SyntheticConfig::cifar10_like(cfg.image_hw),
                                              data_rng),
        fed, seed);
  }
  Rng fleet_rng(kScheduleSeed);
  const ModelPool pool(env.spec, env.pool_config);
  env.devices = make_devices(pool, cfg.num_clients, cfg.proportions, fleet_rng,
                             cfg.capacity_jitter);
  for (DeviceSim& d : env.devices) d.availability = cfg.availability;
  env.run.seed = kScheduleSeed;
  return env;
}

/// Sets every FlRunConfig field that would otherwise fall back to an AFL_*
/// environment variable.
void pin_run_config(const std::string& w, FlRunConfig& run, std::size_t threads) {
  run.threads = threads;
  run.net = net::NetConfig{};
  run.async = async::AsyncConfig{};
  run.hier = hier::HierConfig{};
  run.pop = pop::PopConfig{};
  run.snapshot_path = std::string();
  run.snapshot_every = 1;
  run.stop_after_round = 0;
  run.resume_from = std::string();
  if (w == "wire") {
    run.net->enabled = true;
    run.net->codec = net::Codec::kFp16;
    run.net->uplink_codec = net::Codec::kTopK10;
    run.net->channel.bandwidth_bytes_per_s = 256 * 1024.0;
    run.net->channel.latency_s = 0.02;
    run.net->channel.loss_prob = 0.05;
    run.async->enabled = true;
    run.async->buffer_size = 8;
    run.async->concurrency = 16;
    run.pop->enabled = true;
    run.pop->active_frac = 0.7;
    run.pop->rotate_every = 5;
    run.pop->rotate_frac = 0.2;
    run.pop->dark_prob = 0.05;
    run.pop->dark_len = 2;
    run.pop->channels = true;
    run.pop->bw_spread = 3.0;
    run.pop->loss_max = 0.1;
  } else if (w == "scale") {
    run.net->enabled = true;
    run.net->codec = net::Codec::kFp16;
    run.hier->enabled = true;
    run.hier->shards = 8;
    run.hier->sync_every = 1;
  }
}

// ---------------------------------------------------------------------------
// Small shared helpers.

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt_num(values[i]);
  }
  return out + "]";
}

/// FNV-1a over the RunResult fields that must not depend on the thread count.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string result_digest(const RunResult& r) {
  Digest d;
  d.u64(r.curve.size());
  for (const RoundRecord& c : r.curve) {
    d.u64(c.round);
    d.f64(c.full_acc);
    d.f64(c.avg_acc);
    d.f64(c.comm_waste);
    d.f64(c.round_waste);
  }
  for (const auto& [label, acc] : r.level_acc) {
    d.str(label);
    d.f64(acc);
  }
  d.u64(r.comm.params_sent());
  d.u64(r.comm.params_returned());
  d.u64(r.comm.bytes_sent());
  d.u64(r.comm.bytes_returned());
  d.u64(r.comm.retransmits());
  d.u64(r.comm.stragglers());
  d.u64(r.comm.drops());
  d.u64(r.failed_trainings);
  d.f64(r.sim_seconds);
  for (const TimeToAcc& t : r.time_to_acc) {
    d.f64(t.accuracy);
    d.f64(t.sim_seconds);
    d.u64(t.round);
  }
  return d.hex();
}

std::uint64_t registry_counter(const std::string& name) {
  for (const auto& [n, v] : obs::metrics().counters()) {
    if (n == name) return v;
  }
  return 0;
}

obs::Histogram::Snapshot registry_histogram(const std::string& name) {
  for (const auto& [n, s] : obs::metrics().histograms()) {
    if (n == name) return s;
  }
  return {};
}

double mean_ms(const obs::Histogram::Snapshot& s) {
  return s.count > 0 ? s.sum / static_cast<double>(s.count) * 1e3 : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer metrics. The order here is the order of the report; the names
// and units are the per_layer list of BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"engine.select_s", "s"},
    {"engine.train_phase_s", "s"},
    {"engine.pool_busy_ratio", "ratio"},
    {"engine.client_train_ms_mean", "ms"},
    {"engine.client_train_self_s", "s"},
    {"engine.aggregate_s", "s"},
    {"engine.evaluate_s", "s"},
    {"engine.unattributed_s", "s"},
    {"engine.dispatch_ok_ratio", "ratio"},
    {"fl.local_train_calls", "count"},
    {"fl.local_train_s", "s"},
    {"fl.train_samples_per_s", "samples/s"},
    {"fl.evaluate_ms", "ms"},
    {"fl.aggregate_ms", "ms"},
    {"nn.conv2d.fwd_ms", "ms"},
    {"nn.conv2d.bwd_ms", "ms"},
    {"nn.linear.fwd_ms", "ms"},
    {"nn.linear.bwd_ms", "ms"},
    {"nn.other.fwd_ms", "ms"},
    {"nn.other.bwd_ms", "ms"},
    {"tensor.gemm_s", "s"},
    {"tensor.gemm.calls", "count"},
    {"tensor.gemm_at_s", "s"},
    {"tensor.gemm_at.calls", "count"},
    {"tensor.gemm_bt_s", "s"},
    {"tensor.gemm_bt.calls", "count"},
    {"tensor.im2col_s", "s"},
    {"tensor.im2col.calls", "count"},
    {"tensor.col2im_s", "s"},
    {"tensor.col2im.calls", "count"},
    {"prune.prune_to_shapes_ms", "ms"},
    {"prune.split_ms", "ms"},
    {"prune.build_ms", "ms"},
    {"rl.select_us", "us"},
    {"rl.updates", "count"},
    {"net.frame_encode_ms", "ms"},
    {"net.frame_decode_ms", "ms"},
    {"net.codec_encode_ms", "ms"},
    {"net.codec_decode_ms", "ms"},
    {"net.bytes_sent", "bytes"},
    {"net.bytes_returned", "bytes"},
    {"net.retransmits", "count"},
    {"compress.encode_update_ms", "ms"},
    {"compress.uplink_ratio", "ratio"},
    {"async.staleness_p50", "versions"},
    {"async.buffer_occupancy_mean", "count"},
    {"async.dispatches", "count"},
    {"hier.merge_ms", "ms"},
    {"pop.departures", "count"},
    {"pop.dark_rounds", "count"},
    {"data.materialize_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"obs.unattributed_share", "ratio"},
};

constexpr MetricDef kEndToEndMetrics[] = {
    {"rounds_per_s", "rounds/s"}, {"rounds_per_s_1t", "rounds/s"},
    {"round_ms_p50", "ms"},       {"round_ms_p90", "ms"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

using Layers = std::map<std::string, double>;

/// Mean seconds per call of `timed_call`, which returns the seconds it spent
/// in the code under test. Repeats until kProbeSeconds are spent there.
template <class Fn>
double probe_mean_seconds(Fn&& timed_call) {
  double total = 0.0;
  std::size_t calls = 0;
  while (calls < 3 || total < kProbeSeconds) {
    total += timed_call();
    ++calls;
  }
  return total / static_cast<double>(calls);
}

template <class Fn>
double timed(Fn&& fn) {
  Stopwatch watch;
  fn();
  return watch.seconds();
}

/// Engine, fl, tensor and module-counter metrics of the run just finished,
/// read from its RunResult, the profiler spans and the metrics registry.
void run_layer_metrics(const FlRunConfig& run, const RunResult& r, double wall_s,
                       Layers& out) {
  std::map<std::string, obs::prof::SpanStats> spans;
  for (obs::prof::SpanStats& s : obs::prof::snapshot()) spans[s.name] = s;
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? obs::prof::SpanStats{} : it->second;
  };
  const bool async = run.async->enabled;
  const obs::prof::SpanStats select = span(async ? "async.top_up" : "engine.select");
  const obs::prof::SpanStats train = span(async ? "async.train_wave" : "engine.train");
  const obs::prof::SpanStats client =
      span(async ? "async.client_train" : "engine.client_train");

  double aggregate_s = 0.0, evaluate_s = 0.0, ok = 0.0, failed = 0.0;
  for (const RoundMetrics& m : r.round_metrics) {
    aggregate_s += m.aggregate_seconds;
    evaluate_s += m.eval_seconds;
    ok += static_cast<double>(m.clients_ok);
    failed += static_cast<double>(m.clients_failed);
  }
  const double phases_s = select.self_seconds + train.wall_seconds + aggregate_s + evaluate_s;
  out["engine.select_s"] = select.self_seconds;
  out["engine.train_phase_s"] = train.wall_seconds;
  out["engine.pool_busy_ratio"] =
      train.wall_seconds > 0.0
          ? client.wall_seconds / (train.wall_seconds * static_cast<double>(run.threads))
          : 0.0;
  out["engine.client_train_ms_mean"] =
      client.count > 0 ? client.wall_seconds / static_cast<double>(client.count) * 1e3
                       : 0.0;
  out["engine.client_train_self_s"] = client.self_seconds;
  out["engine.aggregate_s"] = aggregate_s;
  out["engine.evaluate_s"] = evaluate_s;
  out["engine.unattributed_s"] = wall_s - phases_s;
  out["engine.dispatch_ok_ratio"] = ok + failed > 0.0 ? ok / (ok + failed) : 0.0;
  out["obs.unattributed_share"] = (wall_s - phases_s) / wall_s;

  const obs::Histogram::Snapshot local = registry_histogram("afl.fl.local_train.seconds");
  out["fl.local_train_calls"] = static_cast<double>(local.count);
  out["fl.local_train_s"] = local.sum;
  out["fl.train_samples_per_s"] =
      local.sum > 0.0
          ? static_cast<double>(registry_counter("afl.fl.local_train.samples")) / local.sum
          : 0.0;
  out["fl.evaluate_ms"] = mean_ms(registry_histogram("afl.fl.evaluate.seconds"));

  for (const char* kernel : {"gemm", "gemm_at", "gemm_bt", "im2col", "col2im"}) {
    const obs::prof::SpanStats s = span((std::string("tensor.") + kernel).c_str());
    out[std::string("tensor.") + kernel + "_s"] = s.wall_seconds;
    out[std::string("tensor.") + kernel + ".calls"] = static_cast<double>(s.count);
  }

  out["prune.prune_to_shapes_ms"] =
      mean_ms(registry_histogram("afl.prune.prune_to_shapes.seconds"));
  out["rl.updates"] = static_cast<double>(registry_counter("afl.rl.updates"));
  out["net.bytes_sent"] = static_cast<double>(registry_counter("afl.net.bytes.sent"));
  const double returned = static_cast<double>(registry_counter("afl.net.bytes.returned"));
  const double dense = static_cast<double>(registry_counter("afl.compress.dense.bytes"));
  out["net.bytes_returned"] = returned;
  out["net.retransmits"] = static_cast<double>(registry_counter("afl.net.retransmits"));
  out["compress.uplink_ratio"] = dense > 0.0 ? returned / dense : 0.0;
  out["async.staleness_p50"] = registry_histogram("afl.async.staleness").p50;
  out["async.buffer_occupancy_mean"] = registry_histogram("afl.async.buffer.occupancy").mean;
  out["async.dispatches"] = static_cast<double>(registry_counter("afl.async.dispatches"));
  out["pop.departures"] = static_cast<double>(registry_counter("afl.pop.departures"));
  out["pop.dark_rounds"] = static_cast<double>(registry_counter("afl.pop.dark.rounds"));
}

/// Times public calls of each module on the workload's own model, pool,
/// cohort size, codecs and population.
void probe_layer_metrics(const std::string& w, const ExperimentEnv& env, Layers& out) {
  const ExperimentConfig& cfg = env.config;
  const ModelPool pool(env.spec, env.pool_config);
  const std::size_t large = pool.largest_index();
  Rng rng(cfg.seed ^ 0x5eedULL);
  const ParamSet global = build_full_model(env.spec, &rng).export_params();
  const ParamSet payload = pool.split(global, large);
  std::size_t sink = 0;

  // nn: one forward (train mode) and one backward pass per layer of L1, at
  // the train batch, or at the evaluation batch on the eval workload.
  {
    Model model = pool.build(large, &rng);
    const std::size_t batch =
        w == "eval" ? std::min(env.run.eval_batch, cfg.test_samples) : cfg.batch_size;
    const Tensor x = Tensor::randn(
        {batch, env.spec.in_channels, env.spec.in_h, env.spec.in_w}, rng);
    std::map<std::string, double> fwd, bwd;
    double total = 0.0;
    std::size_t passes = 0;
    const auto kind_of = [](Layer& layer) {
      const std::string k = layer.kind();
      return k == "conv2d" || k == "linear" ? k : std::string("other");
    };
    while (passes == 0 || total < kProbeSeconds) {
      Tensor h = x;
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        Layer& layer = model.layer(i);
        const double s = timed([&] { h = layer.forward(h, true); });
        fwd[kind_of(layer)] += s;
        total += s;
      }
      Tensor g = Tensor::full(h.shape(), 1.0f / static_cast<float>(h.numel()));
      for (std::size_t i = model.num_layers(); i-- > 0;) {
        Layer& layer = model.layer(i);
        const double s = timed([&] { g = layer.backward(g); });
        bwd[kind_of(layer)] += s;
        total += s;
      }
      sink += g.numel();
      ++passes;
    }
    for (const char* kind : {"conv2d", "linear", "other"}) {
      out[std::string("nn.") + kind + ".fwd_ms"] =
          fwd[kind] / static_cast<double>(passes) * 1e3;
      out[std::string("nn.") + kind + ".bwd_ms"] =
          bwd[kind] / static_cast<double>(passes) * 1e3;
    }
  }

  // prune: split and build, cycling over every pool entry.
  {
    std::size_t i = 0;
    out["prune.split_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] { sink += pool.split(global, i++ % pool.size()).size(); });
    });
    out["prune.build_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] { sink += pool.build(i++ % pool.size()).num_layers(); });
    });
  }

  // rl: one selection over the workload's whole population.
  {
    const ClientSelector selector(pool, env.data.num_clients(),
                                  SelectionStrategy::kResourceCuriosity);
    const std::vector<bool> taken(env.data.num_clients(), false);
    std::size_t i = 0;
    out["rl.select_us"] = 1e6 * probe_mean_seconds([&] {
      return timed([&] { sink += selector.select(i++ % pool.size(), taken, rng).value_or(0); });
    });
  }

  // fl and hier: fold one cohort of updates (every pool level in turn) into
  // the global model; hier.merge_ms times merging 8 shard partials of it.
  {
    std::vector<ClientUpdate> cohort;
    for (std::size_t k = 0; k < cfg.clients_per_round; ++k) {
      cohort.push_back({pool.split(global, k % pool.size()), cfg.samples_per_client});
    }
    out["fl.aggregate_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] { sink += hetero_aggregate(global, cohort).size(); });
    });
    constexpr std::size_t kShards = 8;
    out["hier.merge_ms"] = 1e3 * probe_mean_seconds([&] {
      std::vector<ShardPartial> partials;
      for (std::size_t s = 0; s < kShards; ++s) {
        ShardAggregator shard(global);
        for (std::size_t k = s; k < cohort.size(); k += kShards) shard.add(cohort[k]);
        partials.push_back(shard.take_partial());
      }
      return timed([&] {
        for (std::size_t s = 1; s < kShards; ++s) {
          merge_partials(partials[0], std::move(partials[s]));
        }
        sink += finalize_partial(partials[0], global).size();
      });
    });
  }

  // net: the L1 dispatch frame in the workload's downlink codec, and the
  // same tensors through the workload's uplink codec.
  {
    const net::NetConfig& link = *env.run.net;
    const net::Codec down = link.enabled ? link.codec : net::Codec::kFp32;
    const net::Codec up = link.enabled ? link.uplink() : net::Codec::kFp32;
    const net::FrameHeader header{net::FrameKind::kDispatch, down, 1, 0};
    const std::vector<std::uint8_t> frame = net::encode_frame(header, payload);
    out["net.frame_encode_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] { sink += net::encode_frame(header, payload).size(); });
    });
    out["net.frame_decode_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] { sink += net::decode_frame(frame).size(); });
    });
    std::vector<std::uint8_t> encoded;
    std::vector<std::size_t> sizes;
    for (const auto& [name, t] : payload) sizes.push_back(net::encode_tensor(t, up, encoded));
    out["net.codec_encode_ms"] = 1e3 * probe_mean_seconds([&] {
      std::vector<std::uint8_t> buf;
      buf.reserve(encoded.size());
      return timed([&] {
        for (const auto& [name, t] : payload) net::encode_tensor(t, up, buf);
        sink += buf.size();
      });
    });
    out["net.codec_decode_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] {
        std::size_t offset = 0, k = 0;
        for (const auto& [name, t] : payload) {
          sink += net::decode_tensor(encoded.data() + offset, sizes[k], t.shape(), up).numel();
          offset += sizes[k++];
        }
      });
    });
  }

  // compress: top-k 10% with error feedback on an L1 update, 16 clients'
  // residual rows in turn.
  {
    net::NetConfig net_cfg;
    net_cfg.enabled = true;
    net_cfg.uplink_codec = net::Codec::kTopK10;
    const net::Transport transport(net_cfg, cfg.seed);
    compress::Compressor compressor(transport, compress::CompressConfig{});
    ParamSet trained = payload;
    for (auto& [name, t] : trained) {
      const Tensor noise = Tensor::randn(t.shape(), rng, 0.0f, 0.01f);
      for (std::size_t j = 0; j < t.numel(); ++j) t[j] += noise[j];
    }
    std::size_t client = 0;
    out["compress.encode_update_ms"] = 1e3 * probe_mean_seconds([&] {
      ParamSet update = trained;
      return timed([&] { compressor.encode_update(client++ % 16, update, payload); });
    });
  }

  // data: generate one client shard, from the run's own lazy dataset or from
  // a lazy twin of the eager one (same task config and client shard size).
  {
    FederatedDataset twin;
    const FederatedDataset* data = &env.data;
    if (!data->lazy()) {
      FederatedConfig fed;
      fed.num_clients = cfg.num_clients;
      fed.samples_per_client = cfg.samples_per_client;
      fed.test_samples = 1;
      twin = make_federated_lazy(
          std::make_shared<const SyntheticTask>(SyntheticConfig::cifar10_like(cfg.image_hw),
                                                rng),
          fed, cfg.seed);
      data = &twin;
    }
    std::size_t client = 0;
    out["data.materialize_ms"] = 1e3 * probe_mean_seconds([&] {
      return timed([&] {
        sink += data->materialize_client(client++ % data->num_clients()).size();
      });
    });
  }
  if (sink == 0) std::fprintf(stderr, "probes produced no output\n");
}

// ---------------------------------------------------------------------------
// Child: one FL run, reported as one JSON line on stdout.

/// Empty when the run passes its workload's check, else what failed.
std::string workload_check(const std::string& w, const RunResult& r,
                           std::size_t rounds, double peak_rss_mb) {
  if (r.round_metrics.size() != rounds) {
    return "expected " + std::to_string(rounds) + " rounds, got " +
           std::to_string(r.round_metrics.size());
  }
  if (w == "train" && r.best_avg_acc() < kTrainMinBestAvgAcc) {
    return "best_avg_acc " + fmt_num(r.best_avg_acc()) + " < " + fmt_num(kTrainMinBestAvgAcc);
  }
  if (w == "eval") {
    const std::uint64_t calls = registry_histogram("afl.fl.evaluate.seconds").count;
    if (calls != 3 * rounds) {
      return "expected " + std::to_string(3 * rounds) + " evaluate calls, got " +
             std::to_string(calls);
    }
  }
  if (w == "wire") {
    const double dense = static_cast<double>(registry_counter("afl.compress.dense.bytes"));
    const double returned = static_cast<double>(registry_counter("afl.net.bytes.returned"));
    if (dense <= 0.0 || returned / dense > kWireMaxUplinkRatio) {
      return "uplink bytes / dense bytes = " + fmt_num(dense > 0.0 ? returned / dense : 0.0) +
             " (limit " + fmt_num(kWireMaxUplinkRatio) + ")";
    }
  }
  if (w == "scale") {
    if (peak_rss_mb > kScaleMaxPeakRssMb) {
      return "peak RSS " + fmt_num(peak_rss_mb) + " MiB > " + fmt_num(kScaleMaxPeakRssMb);
    }
    for (const RoundMetrics& m : r.round_metrics) {
      if (m.clients_ok == 0) return "round " + std::to_string(m.round) + " committed no update";
    }
  }
  return "";
}

int run_child(const std::string& w, std::size_t threads, std::uint64_t seed, bool traced,
              bool warmup) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed coordinator
  set_log_threshold(LogLevel::kWarn);
  // Set-up runs several times so its median rests on more than one sample
  // per child; the run uses the last environment built.
  ExperimentEnv env;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    Stopwatch setup_watch;
    ExperimentEnv built = make_workload_env(w, seed);
    setup_s.push_back(setup_watch.seconds());
    if (i + 1 == kSetupRepeats) env = std::move(built);
  }
  pin_run_config(w, env.run, threads);
  if (warmup) env.run.stop_after_round = kWarmupRounds;

  obs::prof::set_profiling(traced);
  Stopwatch run_watch;
  const RunResult result = run_algorithm(Algorithm::kAdaptiveFl, env);
  const double wall_s = run_watch.seconds();
  obs::prof::set_profiling(false);
  const obs::RssSample rss = obs::read_rss();
  const double peak_rss_mb = static_cast<double>(rss.peak_bytes) / (1024.0 * 1024.0);
  // Checked before the probes, which add to the registry counters it reads.
  // A warm-up's partial run has nothing to check.
  const std::string check =
      warmup ? std::string() : workload_check(w, result, env.run.rounds, peak_rss_mb);

  Layers layers;
  if (traced) {
    run_layer_metrics(env.run, result, wall_s, layers);
    probe_layer_metrics(w, env, layers);
    obs::prof::reset();  // nothing left for the profiler's exit-time report
  }

  std::vector<double> round_ms;
  for (const RoundMetrics& m : result.round_metrics) round_ms.push_back(m.round_seconds * 1e3);
  std::string layers_json;
  for (const auto& [name, value] : layers) {
    if (!layers_json.empty()) layers_json += ',';
    layers_json += "\"" + name + "\":" + fmt_num(value);
  }
  const std::string line =
      "{\"setup_s\":" + json_numbers(setup_s) + ",\"wall_s\":" + fmt_num(wall_s) +
      ",\"peak_rss_mb\":" + fmt_num(peak_rss_mb) +
      ",\"best_full_acc\":" + fmt_num(result.best_full_acc()) + ",\"digest\":\"" +
      result_digest(result) + "\",\"check\":\"" + obs::json_escape(check) +
      "\",\"round_ms\":" + json_numbers(round_ms) + ",\"layers\":{" + layers_json + "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Coordinator.

struct ChildRun {
  std::size_t threads = 0;
  bool traced = false;
  bool warmup = false;
  std::string error;  // empty = the child exited 0 with a well-formed report
  double wall_s = 0.0, peak_rss_mb = 0.0, best_full_acc = 0.0;
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::string digest;
  std::string check;
  Layers layers;

  double rounds_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(round_ms.size()) / wall_s : 0.0;
  }
};

void parse_child_report(const std::string& text, ChildRun& run) {
  const auto fields = obs::json_object_fields(text);
  for (const char* key : {"setup_s", "wall_s", "peak_rss_mb", "best_full_acc", "digest",
                          "check", "round_ms", "layers"}) {
    if (fields.count(key) == 0) {
      run.error = std::string("child report lacks \"") + key + "\"";
      return;
    }
  }
  for (const std::string& item : obs::json_array_items(fields.at("setup_s"))) {
    run.setup_s.push_back(obs::json_raw_number(item));
  }
  run.wall_s = obs::json_raw_number(fields.at("wall_s"));
  run.peak_rss_mb = obs::json_raw_number(fields.at("peak_rss_mb"));
  run.best_full_acc = obs::json_raw_number(fields.at("best_full_acc"));
  run.digest = obs::json_raw_string(fields.at("digest"));
  run.check = obs::json_raw_string(fields.at("check"));
  for (const std::string& item : obs::json_array_items(fields.at("round_ms"))) {
    run.round_ms.push_back(obs::json_raw_number(item));
  }
  for (const auto& [name, raw] : obs::json_object_fields(fields.at("layers"))) {
    run.layers[name] = obs::json_raw_number(raw);
  }
}

class Coordinator {
 public:
  Coordinator(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {
    char path[4096];
    const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
    exe_ = std::string(path, static_cast<std::size_t>(n));
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string var = *e;
      if (var.rfind("AFL_", 0) == 0) {
        scrubbed_.push_back(var.substr(0, var.find('=')));
      } else {
        env_.push_back(var);
      }
    }
  }

  const std::vector<std::string>& scrubbed() const { return scrubbed_; }
  double elapsed() const { return clock_.seconds(); }
  bool out_of_time() const { return elapsed() > kDeadlineSeconds; }

  /// Runs one child to completion and parses its report.
  ChildRun spawn(std::size_t threads, bool traced, bool warmup) {
    ChildRun run;
    run.threads = threads;
    run.traced = traced;
    run.warmup = warmup;
    std::vector<std::string> args = {exe_,           "--child", workload_,
                                     "--threads",    std::to_string(threads),
                                     "--seed",       std::to_string(seed_)};
    if (traced) args.push_back("--traced");
    if (warmup) args.push_back("--warmup");
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env_) envp.push_back(e.data());
    envp.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0) {
      run.error = std::string("pipe: ") + std::strerror(errno);
      return run;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, exe_.c_str(), &actions, nullptr, argv.data(),
                               envp.data());
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      run.error = std::string("posix_spawn: ") + std::strerror(rc);
      return run;
    }

    std::string out;
    bool killed = false;
    char buf[65536];
    for (;;) {
      const double left = kDeadlineSeconds - elapsed();
      pollfd p{fds[0], POLLIN, 0};
      const int ready = left > 0.0 ? poll(&p, 1, static_cast<int>(left * 1000.0) + 1) : 0;
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        kill(pid, SIGKILL);
        killed = true;
        break;
      }
      const ssize_t got = read(fds[0], buf, sizeof(buf));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      out.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (killed) {
      run.error = "killed at the deadline";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      run.error = "child exited abnormally (status " + std::to_string(status) + ")";
    } else {
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
      const std::size_t last_line = out.rfind('\n');
      parse_child_report(last_line == std::string::npos ? out : out.substr(last_line + 1), run);
    }
    return run;
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::string exe_;
  std::vector<std::string> env_;
  std::vector<std::string> scrubbed_;
  Stopwatch clock_;
};

std::size_t available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// N, the worker threads of the multi-threaded runs: half the available
/// cores, at least 1 and at most 4. On a shared host a run that occupies
/// every core slows by the share of a core any other tenant takes, and a
/// parallel training wave waits for its slowest worker: on 4 shared cores,
/// wire's 4-thread round times spread nearly twice as much between runs as
/// its 2-thread ones. The free cores also hold the engine thread and the
/// coordinator.
std::size_t default_threads(std::size_t cores) {
  return std::clamp<std::size_t>(cores / 2, 1, 4);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t value = line.find_first_not_of(' ', line.find(':') + 1);
    if (line.rfind("model name", 0) == 0 && value != std::string::npos) {
      return line.substr(value);
    }
  }
  return "unknown";
}

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_fingerprint(const Coordinator& coordinator, std::size_t cores, std::size_t threads) {
  const char* describe = std::getenv("BENCH_GIT_DESCRIBE");
  std::string scrubbed;
  for (const std::string& name : coordinator.scrubbed()) {
    if (!scrubbed.empty()) scrubbed += ',';
    scrubbed += name;
  }
  std::printf("host: nproc=%zu threads=%zu cpu=\"%s\"\n", cores, threads, cpu_model().c_str());
  std::printf("build: compiler=\"%s\" flags=\"%s\" git=\"%s\"\n", compiler_version().c_str(),
              AFL_BENCH_BUILD_FLAGS, describe != nullptr ? describe : "unknown");
  std::printf("scrubbed AFL_* variables: %s\n", scrubbed.empty() ? "(none)" : scrubbed.c_str());
}

/// One schedule's run rebuilt from its repetitions. Every run trains the same
/// schedule, so round r does the same work in each; interference from other
/// processes only ever adds time. Taking the fastest repetition of each round,
/// and the fastest time spent outside rounds, discards whatever hit some
/// repetitions and not others.
struct Schedule {
  std::vector<double> round_ms;  // fastest repetition of each round
  double wall_s = 0.0;           // their sum plus the fastest time outside rounds

  double rounds_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(round_ms.size()) / wall_s : 0.0;
  }
};

Schedule fastest_schedule(const std::vector<const ChildRun*>& runs) {
  Schedule s;
  if (runs.empty()) return s;
  const std::size_t rounds = runs.front()->round_ms.size();
  double outside_s = std::numeric_limits<double>::infinity();
  s.round_ms.assign(rounds, std::numeric_limits<double>::infinity());
  for (const ChildRun* r : runs) {
    double in_rounds_ms = 0.0;
    for (std::size_t i = 0; i < rounds; ++i) {
      in_rounds_ms += r->round_ms[i];
      s.round_ms[i] = std::min(s.round_ms[i], r->round_ms[i]);
    }
    outside_s = std::min(outside_s, r->wall_s - in_rounds_ms * 1e-3);
  }
  s.wall_s = outside_s;
  for (double ms : s.round_ms) s.wall_s += ms * 1e-3;
  return s;
}

struct Reported {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  // per run, or per round for round_ms_*
};

void print_table(const std::vector<Reported>& metrics) {
  std::printf("%-30s %-10s %13s | %13s %13s %13s %5s\n", "metric", "unit", "value",
              "sample median", "q1", "q3", "n");
  for (const Reported& m : metrics) {
    std::printf("%-30s %-10s %13.6g | %13.6g %13.6g %13.6g %5zu\n", m.name.c_str(),
                m.unit.c_str(), m.value, median_of(m.samples), quantile_of(m.samples, 0.25),
                quantile_of(m.samples, 0.75), m.samples.size());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Reported>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + fmt_num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run_coordinator(const std::string& workload, std::uint64_t seed, double seconds,
                    bool trace, std::size_t requested_threads) {
  const std::size_t cores = available_cores();
  if (requested_threads > cores) {
    std::fprintf(stderr, "--threads %zu exceeds the %zu available cores\n", requested_threads,
                 cores);
    return 64;
  }
  const std::size_t threads =
      requested_threads > 0 ? requested_threads : default_threads(cores);
  Coordinator coordinator(workload, seed);
  std::printf("afl_benchmark workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  print_fingerprint(coordinator, cores, threads);

  std::vector<ChildRun> runs;
  // One discarded warm-up child at N threads, cut short after kWarmupRounds.
  runs.push_back(coordinator.spawn(threads, false, true));

  // Three untraced N-thread runs and two of the other kind (1 thread, or
  // traced at N threads with --trace 1): two pairs in alternating order, then
  // the last N-thread run. Fixed counts, which the workloads are sized to fit
  // in the default measuring time, keep every invocation's estimates on the
  // same number of runs. The N-thread runs feed four end-to-end metrics and
  // are the noisiest, so they get the third run; the other kind is steadier
  // (1 thread) or reported per layer only (traced), and costs more time.
  // After the first pair, no run starts once `seconds` have passed since the
  // invocation started.
  struct Slot {
    std::size_t threads;
    bool traced;
  };
  const Slot plain_slot{threads, false};
  const Slot other_slot = trace ? Slot{threads, true} : Slot{1, false};
  const Slot schedule[] = {plain_slot, other_slot, other_slot, plain_slot, plain_slot};
  for (const Slot& slot : schedule) {
    if (coordinator.out_of_time() || (runs.size() > 2 && coordinator.elapsed() > seconds)) {
      break;
    }
    runs.push_back(coordinator.spawn(slot.threads, slot.traced, false));
  }

  // The first measured run's digest is the reference every other one of this
  // seed must reproduce, at any thread count, traced or not.
  std::string reference;
  for (std::size_t i = 1; i < runs.size() && reference.empty(); ++i) {
    if (runs[i].error.empty()) reference = runs[i].digest;
  }
  std::size_t failed = 0;
  for (ChildRun& run : runs) {
    std::string why = run.error;
    if (why.empty() && !run.check.empty()) why = run.check;
    if (why.empty() && !run.warmup && run.digest != reference) {
      why = "RunResult digest " + run.digest + " differs from the first measured run's " +
            reference;
    }
    if (why.empty() && run.traced) {
      for (const MetricDef& m : kLayerMetrics) {
        if (run.layers.count(m.name) == 0 && std::string(m.name) != "obs.trace_overhead") {
          why = std::string("traced run lacks ") + m.name;
          break;
        }
      }
      // The phases are disjoint spans of the engine thread, so what they
      // leave unattributed cannot be negative beyond clock noise.
      if (why.empty() && run.layers["engine.unattributed_s"] < -0.01 * run.wall_s) {
        why = "engine phases exceed the traced wall time";
      }
    }
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "run failed (%zu threads%s): %s\n", run.threads,
                   run.traced ? ", traced" : "", why.c_str());
      run.error = why;
    }
  }
  const std::size_t attempted = runs.size();
  const std::vector<ChildRun> measured(runs.begin() + 1, runs.end());
  const auto ok_runs = [&](std::size_t threads_wanted, bool traced) {
    std::vector<const ChildRun*> out;
    for (const ChildRun& r : measured) {
      if (r.error.empty() && r.threads == threads_wanted && r.traced == traced) {
        out.push_back(&r);
      }
    }
    return out;
  };

  std::vector<Reported> report;
  const auto add = [&](const MetricDef& def, double value, std::vector<double> samples) {
    report.push_back({def.name, def.unit, value, std::move(samples)});
  };
  const std::vector<const ChildRun*> plain = ok_runs(threads, false);
  if (!trace) {
    const std::vector<const ChildRun*> single = threads == 1 ? plain : ok_runs(1, false);
    std::vector<double> rps, rps_1t, setup_s, peak;
    for (const ChildRun* r : plain) {
      rps.push_back(r->rounds_per_s());
      peak.push_back(r->peak_rss_mb);
    }
    for (const ChildRun* r : single) rps_1t.push_back(r->rounds_per_s());
    for (const ChildRun& r : measured) {
      if (r.error.empty()) setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    }
    const Schedule fastest = fastest_schedule(plain);
    add(kEndToEndMetrics[0], fastest.rounds_per_s(), rps);
    add(kEndToEndMetrics[1], fastest_schedule(single).rounds_per_s(), rps_1t);
    add(kEndToEndMetrics[2], quantile_of(fastest.round_ms, 0.5), fastest.round_ms);
    add(kEndToEndMetrics[3], quantile_of(fastest.round_ms, 0.9), fastest.round_ms);
    add(kEndToEndMetrics[4], median_of(setup_s), setup_s);
    add(kEndToEndMetrics[5], median_of(peak), peak);
  } else {
    const std::vector<const ChildRun*> traced = ok_runs(threads, true);
    for (const MetricDef& def : kLayerMetrics) {
      std::vector<double> samples;
      for (const ChildRun* r : traced) {
        const auto it = r->layers.find(def.name);
        if (it != r->layers.end()) samples.push_back(it->second);
      }
      add(def, median_of(samples), samples);
    }
    std::vector<double> plain_wall, traced_wall;
    for (const ChildRun* r : plain) plain_wall.push_back(r->wall_s);
    for (const ChildRun* r : traced) traced_wall.push_back(r->wall_s);
    const double base = median_of(plain_wall);
    Reported& overhead = *std::find_if(report.begin(), report.end(), [](const Reported& m) {
      return m.name == "obs.trace_overhead";
    });
    overhead.samples.clear();
    for (double t : traced_wall) overhead.samples.push_back(base > 0.0 ? t / base - 1.0 : 0.0);
    overhead.value = base > 0.0 ? median_of(traced_wall) / base - 1.0 : 0.0;
  }

  std::vector<double> acc;
  for (const ChildRun& r : measured) {
    if (r.error.empty()) acc.push_back(r.best_full_acc);
  }
  print_table(report);
  std::printf("best_full_acc (information only): %.4f\n", median_of(acc));

  bool complete = !measured.empty() && !plain.empty();
  for (const Reported& m : report) complete = complete && !m.samples.empty();
  print_result(failed == 0 && complete, attempted, failed, report);
  return 0;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: afl_benchmark --workload <train|eval|wire|scale> [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads N]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage((flag + " needs a non-negative integer, got \"" + text + "\"").c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, child;
  std::uint64_t seed = 7;
  double seconds = 30.0;
  bool trace = false, traced = false, warmup = false;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      traced = true;
      continue;
    }
    if (flag == "--warmup") {
      warmup = true;
      continue;
    }
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--child") {
      child = value;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--threads") {
      threads = static_cast<std::size_t>(parse_u64(flag, value));
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  try {
    if (!child.empty()) {
      if (!is_workload(child) || threads == 0) usage("--child needs a workload and --threads");
      return run_child(child, threads, seed, traced, warmup);
    }
    if (!is_workload(workload)) usage("--workload must be one of train, eval, wire, scale");
    return run_coordinator(workload, seed, seconds, trace, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afl_benchmark: %s\n", e.what());
    return 1;
  }
}
