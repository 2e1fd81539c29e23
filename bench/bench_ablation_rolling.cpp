// Design-choice ablation (DESIGN.md §6, not a paper table): fixed-prefix
// width pruning (the paper's scheme, and HeteroFL's) versus FedRolex-style
// rolling-window extraction, versus full AdaptiveFL, on the CIFAR-10 analogue
// with the VGG16-style model. Rolling trains every global parameter
// eventually but sacrifices the stable shared-prefix feature space.

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "prune/model_pool.hpp"

int main(int argc, char** argv) {
  using namespace afl;
  using namespace afl::bench;
  obs::prof::BenchReport report("ablation_rolling", &argc, argv);
  report.set_scale(bench_scale_name(bench_scale()));
  obs::prof::BenchReport::Scoped run_section(report, "run");
  print_header("Ablation: prefix vs rolling-window sub-model extraction",
               "design-choice ablation (DESIGN.md §6)");

  ExperimentConfig cfg = scaled_config();
  cfg.task = TaskKind::kCifar10Like;
  cfg.model = ModelKind::kMiniVgg;
  cfg.eval_every = std::max<std::size_t>(1, cfg.rounds / 5);
  const ExperimentEnv env = make_env(cfg);

  Table table({"Scheme", "best avg (%)", "best full (%)"});

  const RunResult hetero = run_algorithm(Algorithm::kHeteroFl, env);
  table.add_row({"HeteroFL (static prefix)", pct(hetero.best_avg_acc()),
                 pct(hetero.best_full_acc())});
  std::fflush(stdout);

  RollingFl rolling(env.spec, env.pool_config, env.data, env.devices, env.run);
  const RunResult rolled = rolling.run();
  table.add_row({"FedRolex* (rolling window)", pct(rolled.best_avg_acc()),
                 pct(rolled.best_full_acc())});
  std::fflush(stdout);

  const RunResult adaptive = run_algorithm(Algorithm::kAdaptiveFl, env);
  table.add_row({"AdaptiveFL (fine-grained prefix + RL)",
                 pct(adaptive.best_avg_acc()), pct(adaptive.best_full_acc())});

  std::printf("\n%s\n", table.to_markdown().c_str());
  return 0;
}
