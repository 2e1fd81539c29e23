#include "core/experiment.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "arch/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace afl {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAllLarge:
      return "All-Large";
    case Algorithm::kDecoupled:
      return "Decoupled";
    case Algorithm::kHeteroFl:
      return "HeteroFL";
    case Algorithm::kScaleFl:
      return "ScaleFL";
    case Algorithm::kAdaptiveFl:
      return "AdaptiveFL";
    case Algorithm::kAdaptiveFlC:
      return "AdaptiveFL+C";
    case Algorithm::kAdaptiveFlS:
      return "AdaptiveFL+S";
    case Algorithm::kAdaptiveFlRandom:
      return "AdaptiveFL+Random";
    case Algorithm::kAdaptiveFlGreed:
      return "AdaptiveFL+Greed";
    case Algorithm::kAdaptiveFlAsync:
      return "AdaptiveFL+Async";
  }
  return "?";
}

const char* task_name(TaskKind t) {
  switch (t) {
    case TaskKind::kCifar10Like:
      return "CIFAR-10*";
    case TaskKind::kCifar100Like:
      return "CIFAR-100*";
    case TaskKind::kFemnistLike:
      return "FEMNIST*";
    case TaskKind::kWidarLike:
      return "Widar*";
  }
  return "?";
}

const char* model_name(ModelKind m) {
  switch (m) {
    case ModelKind::kMiniVgg:
      return "VGG16*";
    case ModelKind::kMiniResnet:
      return "ResNet18*";
    case ModelKind::kMiniMobilenet:
      return "MobileNetV2*";
  }
  return "?";
}

namespace {

SyntheticConfig task_config(TaskKind task, std::size_t hw) {
  switch (task) {
    case TaskKind::kCifar10Like:
      return SyntheticConfig::cifar10_like(hw);
    case TaskKind::kCifar100Like:
      return SyntheticConfig::cifar100_like(hw);
    case TaskKind::kFemnistLike:
      return SyntheticConfig::femnist_like(hw);
    case TaskKind::kWidarLike:
      return SyntheticConfig::widar_like(hw);
  }
  throw std::invalid_argument("task_config: unknown task");
}

ArchSpec model_spec(ModelKind model, std::size_t classes, std::size_t channels,
                    std::size_t hw) {
  switch (model) {
    case ModelKind::kMiniVgg:
      return mini_vgg(classes, channels, hw);
    case ModelKind::kMiniResnet:
      return mini_resnet(classes, channels, hw);
    case ModelKind::kMiniMobilenet:
      return mini_mobilenet(classes, channels, hw);
  }
  throw std::invalid_argument("model_spec: unknown model");
}

}  // namespace

void print_run_summary(const RunResult& result) {
  if (static_cast<int>(log_threshold()) > static_cast<int>(LogLevel::kInfo)) return;
  double train = 0.0, agg = 0.0, eval = 0.0;
  std::size_t ok = 0, failed = 0;
  double entropy = 0.0;
  for (const RoundMetrics& m : result.round_metrics) {
    train += m.train_seconds;
    agg += m.aggregate_seconds;
    eval += m.eval_seconds;
    ok += m.clients_ok;
    failed += m.clients_failed;
    entropy = m.selector_entropy;  // keep the final round's value
  }
  const double rounds = result.round_metrics.empty()
                            ? 1.0
                            : static_cast<double>(result.round_metrics.size());
  std::fprintf(stderr, "-- %s run summary --\n", result.algorithm.c_str());
  Table summary({"metric", "total", "per round"});
  summary.add_row({"wall seconds", Table::fmt(result.wall_seconds, 3),
                   Table::fmt(result.wall_seconds / rounds, 4)});
  summary.add_row({"local-train seconds", Table::fmt(train, 3),
                   Table::fmt(train / rounds, 4)});
  summary.add_row({"aggregate seconds", Table::fmt(agg, 3), Table::fmt(agg / rounds, 4)});
  summary.add_row({"evaluate seconds", Table::fmt(eval, 3), Table::fmt(eval / rounds, 4)});
  summary.add_row({"params sent", std::to_string(result.comm.params_sent()),
                   Table::fmt(static_cast<double>(result.comm.params_sent()) / rounds, 1)});
  summary.add_row({"params returned", std::to_string(result.comm.params_returned()),
                   Table::fmt(static_cast<double>(result.comm.params_returned()) / rounds, 1)});
  summary.add_row({"comm waste rate", Table::fmt(result.comm.waste_rate(), 4), "-"});
  summary.add_row({"clients trained", std::to_string(ok),
                   Table::fmt(static_cast<double>(ok) / rounds, 2)});
  summary.add_row({"clients failed", std::to_string(failed),
                   Table::fmt(static_cast<double>(failed) / rounds, 2)});
  summary.add_row({"selector entropy (final)", Table::fmt(entropy, 4), "-"});
  std::fprintf(stderr, "%s", summary.to_markdown().c_str());
}

ExperimentEnv make_env(const ExperimentConfig& config) {
  ExperimentEnv env;
  env.config = config;

  const SyntheticConfig task_cfg = task_config(config.task, config.image_hw);
  env.spec = model_spec(config.model, task_cfg.num_classes, task_cfg.channels,
                        task_cfg.hw);
  env.pool_config = PoolConfig::defaults_for(env.spec, config.pool_p);

  Rng rng(config.seed);
  const SyntheticTask task(task_cfg, rng);
  FederatedConfig fed;
  fed.num_clients = config.num_clients;
  fed.samples_per_client = config.samples_per_client;
  fed.test_samples = config.test_samples;
  fed.partition = config.partition;
  fed.alpha = config.alpha;
  if (config.partition == Partition::kNatural) {
    // FEMNIST-style: each writer covers roughly a quarter of the classes.
    fed.classes_per_client = std::max<std::size_t>(3, task_cfg.num_classes / 4);
  }
  env.data = make_federated(task, fed, rng);

  const ModelPool pool(env.spec, env.pool_config);
  env.devices =
      make_devices(pool, config.num_clients, config.proportions, rng,
                   config.capacity_jitter);
  for (DeviceSim& d : env.devices) d.availability = config.availability;
  env.scalefl_budgets = {tier_capacity(pool, DeviceTier::kStrong),
                         tier_capacity(pool, DeviceTier::kMedium),
                         tier_capacity(pool, DeviceTier::kWeak)};

  env.run.rounds = config.rounds;
  env.run.clients_per_round = config.clients_per_round;
  env.run.local.epochs = config.local_epochs;
  env.run.local.batch_size = config.batch_size;
  env.run.local.lr = config.lr;
  env.run.local.momentum = config.momentum;
  env.run.seed = config.seed + 1;
  env.run.eval_every =
      config.eval_every != 0 ? config.eval_every
                             : std::max<std::size_t>(1, config.rounds / 10);
  return env;
}

namespace {

RunResult run_algorithm_impl(Algorithm algorithm, const ExperimentEnv& env) {
  switch (algorithm) {
    case Algorithm::kAllLarge:
      return AllLarge(env.spec, env.data, env.run).run();
    case Algorithm::kDecoupled:
      return Decoupled(env.spec, env.pool_config, env.data, env.devices, env.run)
          .run();
    case Algorithm::kHeteroFl:
      return HeteroFl(env.spec, env.pool_config, env.data, env.devices, env.run).run();
    case Algorithm::kScaleFl:
      return ScaleFl(env.spec, env.scalefl_budgets, env.data, env.devices, env.run)
          .run();
    case Algorithm::kAdaptiveFl: {
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, env.run, {})
          .run();
    }
    case Algorithm::kAdaptiveFlC: {
      AdaptiveFlOptions opt;
      opt.strategy = SelectionStrategy::kCuriosityOnly;
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, env.run, opt)
          .run();
    }
    case Algorithm::kAdaptiveFlS: {
      AdaptiveFlOptions opt;
      opt.strategy = SelectionStrategy::kResourceOnly;
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, env.run, opt)
          .run();
    }
    case Algorithm::kAdaptiveFlRandom: {
      AdaptiveFlOptions opt;
      opt.strategy = SelectionStrategy::kRandom;
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, env.run, opt)
          .run();
    }
    case Algorithm::kAdaptiveFlGreed: {
      AdaptiveFlOptions opt;
      opt.strategy = SelectionStrategy::kRandom;
      opt.greedy_dispatch = true;
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, env.run, opt)
          .run();
    }
    case Algorithm::kAdaptiveFlAsync: {
      // Full method on the buffered async engine: env overrides still apply
      // (AFL_ASYNC_* resolved here), but the master switch is forced on.
      FlRunConfig run = env.run;
      async::AsyncConfig acfg =
          run.async ? *run.async : async::AsyncConfig::from_env();
      acfg.enabled = true;
      run.async = acfg;
      return AdaptiveFl(env.spec, env.pool_config, env.data, env.devices, run, {})
          .run();
    }
  }
  throw std::invalid_argument("run_algorithm: unknown algorithm");
}

}  // namespace

namespace {

// Crash residue for the AFL_METRICS_JSONL sink: per-round metrics are only
// written when a run completes, so a process dying mid-run would lose every
// number. While a run is in flight, an obs::add_trace_flush_hook-registered
// atexit hook dumps the live metrics registry to "<path>.partial"; a clean
// completion removes it again, so the file's presence marks a truncated run.
std::atomic<bool> g_run_in_flight{false};

std::string& partial_metrics_path() {
  static std::string path;
  return path;
}

void flush_partial_metrics() {
  if (!g_run_in_flight.load(std::memory_order_acquire)) return;
  const std::string& path = partial_metrics_path();
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (out) out << obs::metrics().to_jsonl();
}

}  // namespace

RunResult run_algorithm(Algorithm algorithm, const ExperimentEnv& env) {
  AFL_LOG_INFO << "running " << algorithm_name(algorithm) << " on "
               << task_name(env.config.task) << " / " << model_name(env.config.model)
               << " (" << partition_name(env.config.partition)
               << (env.config.partition == Partition::kDirichlet
                       ? ", alpha=" + std::to_string(env.config.alpha)
                       : "")
               << ", " << env.config.rounds << " rounds)";
  const std::string metrics_path = env_or("AFL_METRICS_JSONL", "");
  if (!metrics_path.empty()) {
    partial_metrics_path() = metrics_path + ".partial";
    obs::add_trace_flush_hook(&flush_partial_metrics);
    g_run_in_flight.store(true, std::memory_order_release);
  }
  RunResult result = run_algorithm_impl(algorithm, env);
  g_run_in_flight.store(false, std::memory_order_release);
  print_run_summary(result);
  // Central AFL_METRICS_JSONL sink: every bench / example / test run dumps
  // its per-round metrics. The first run of the process truncates the file,
  // later runs append (records carry the algorithm tag to stay separable).
  if (!metrics_path.empty()) {
    static bool appending = false;
    result.write_metrics_jsonl(metrics_path, appending);
    if (!appending) {
      std::fprintf(stderr, "writing per-round metrics to %s\n", metrics_path.c_str());
    }
    appending = true;
    std::remove(partial_metrics_path().c_str());
  }
  return result;
}

}  // namespace afl
