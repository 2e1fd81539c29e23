// Hierarchical scale-out bench (docs/HIERARCHY.md): how far the client
// population can grow with lazy data shards, sparse RL tables, and the
// sharded round engine. For each population size it runs AdaptiveFL
// sharded (8 shards, sync every round) and reports rounds/sec plus
// the process RSS — compared against what *storing* every client shard would
// have cost, which is the sublinear-memory claim the RSS gauge verifies.
//
// Smoke scale sweeps 10^3..10^5 clients; full scale adds 10^6. Emits one
// afl.bench.v1 section per population (clients / rounds_per_sec / rss_mb /
// peak_rss_mb) for `afl-insight bench diff` gating.

#include <cstdio>
#include <memory>
#include <vector>

#include "arch/zoo.hpp"
#include "bench_common.hpp"
#include "hier/config.hpp"
#include "obs/rss.hpp"
#include "util/stopwatch.hpp"

namespace {

/// make_env minus the eager dataset: client shards stay lazy (generated on
/// demand inside execute()), only the test set and device fleet materialize.
afl::ExperimentEnv make_lazy_env(const afl::ExperimentConfig& config) {
  using namespace afl;
  ExperimentEnv env;
  env.config = config;
  const SyntheticConfig task_cfg = SyntheticConfig::cifar10_like(config.image_hw);
  env.spec = mini_vgg(task_cfg.num_classes, task_cfg.channels, task_cfg.hw);
  env.pool_config = PoolConfig::defaults_for(env.spec, config.pool_p);

  Rng rng(config.seed);
  auto task = std::make_shared<const SyntheticTask>(task_cfg, rng);
  FederatedConfig fed;
  fed.num_clients = config.num_clients;
  fed.samples_per_client = config.samples_per_client;
  fed.test_samples = config.test_samples;
  env.data = make_federated_lazy(std::move(task), fed, config.seed);

  const ModelPool pool(env.spec, env.pool_config);
  env.devices = make_devices(pool, config.num_clients, config.proportions, rng,
                             config.capacity_jitter);
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
  env.run.eval_every = config.eval_every;
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace afl;
  obs::prof::BenchReport report("scaleout", &argc, argv);
  bench::print_header("Hierarchical scale-out: clients vs rounds/sec vs RSS",
                      "scale-out infrastructure (docs/HIERARCHY.md), not a paper table");

  std::vector<std::size_t> populations = {1000, 10000, 100000};
  if (bench_scale() == BenchScale::kFull) populations.push_back(1000000);

  ExperimentConfig base;
  base.image_hw = 8;
  base.samples_per_client = 10;
  base.test_samples = 200;
  base.rounds = 3;
  base.local_epochs = 1;
  base.batch_size = 10;
  base.eval_every = base.rounds;  // eval once; bench the round loop
  bench::apply_env_overrides(base);
  base.eval_every = base.rounds;
  report.set_scale(bench_scale_name(bench_scale()));
  report.set_config("rounds", static_cast<double>(base.rounds));
  report.set_config("samples_per_client",
                    static_cast<double>(base.samples_per_client));
  report.set_config("shards", 8.0);

  // What storing one client's shard would cost: samples * (CHW floats + label).
  const double stored_bytes_per_client =
      static_cast<double>(base.samples_per_client) *
      (3.0 * static_cast<double>(base.image_hw * base.image_hw) * 4.0 + 4.0);

  Table table({"clients", "wall s", "rounds/s", "rss MB", "peak MB",
               "stored-data MB", "acc"});
  int failures = 0;
  for (std::size_t clients : populations) {
    ExperimentConfig cfg = base;
    cfg.num_clients = clients;
    cfg.clients_per_round = std::min<std::size_t>(32, clients);
    ExperimentEnv env = make_lazy_env(cfg);
    hier::HierConfig hier;
    hier.enabled = true;
    hier.shards = 8;
    hier.sync_every = 1;
    env.run.hier = hier;

    obs::prof::BenchReport::Scoped section(report,
                                           "clients_" + std::to_string(clients));
    Stopwatch watch;
    const RunResult result = run_algorithm(Algorithm::kAdaptiveFl, env);
    const double wall = watch.seconds();
    const obs::RssSample rss = obs::read_rss();

    const double rounds_per_sec = static_cast<double>(cfg.rounds) / wall;
    const double rss_mb = static_cast<double>(rss.rss_bytes) / (1024.0 * 1024.0);
    const double peak_mb = static_cast<double>(rss.peak_bytes) / (1024.0 * 1024.0);
    const double stored_mb =
        stored_bytes_per_client * static_cast<double>(clients) / (1024.0 * 1024.0);
    section.set_metric("clients", static_cast<double>(clients));
    section.set_metric("rounds_per_sec", rounds_per_sec);
    section.set_metric("rss_mb", rss_mb);
    section.set_metric("peak_rss_mb", peak_mb);
    section.set_metric("stored_data_mb", stored_mb);
    table.add_row({std::to_string(clients), Table::fmt(wall, 2),
                   Table::fmt(rounds_per_sec, 2), Table::fmt(rss_mb, 1),
                   Table::fmt(peak_mb, 1), Table::fmt(stored_mb, 1),
                   bench::pct(result.final_full_acc)});
    std::printf(
        "{\"bench\":\"scaleout\",\"clients\":%zu,\"rounds\":%zu,"
        "\"wall_seconds\":%.3f,\"rounds_per_sec\":%.3f,\"rss_mb\":%.1f,"
        "\"peak_rss_mb\":%.1f,\"stored_data_mb\":%.1f}\n",
        clients, cfg.rounds, wall, rounds_per_sec, rss_mb, peak_mb, stored_mb);
    if (result.curve.empty()) ++failures;
  }
  std::printf("\n%s\n", table.to_markdown().c_str());
  std::printf(
      "RSS should grow far slower than the stored-data column: lazy shards +\n"
      "sparse RL tables keep per-client state off the heap (docs/HIERARCHY.md).\n");
  return failures == 0 ? 0 : 1;
}
