#pragma once
// Shared helpers for the experiment bench binaries. Each bench regenerates
// one table or figure of the paper (see DESIGN.md's experiment index) and
// prints it as a markdown table / series to stdout.
//
// ADAPTIVEFL_BENCH_SCALE=smoke (default) runs seconds-per-cell configs;
// ADAPTIVEFL_BENCH_SCALE=full runs longer configs closer to the paper's
// regime. Individual knobs can be overridden via the AFL_* variables read by
// apply_env_overrides() below.
//
// Every bench can persist a BENCH_<name>.json snapshot (--out <path> or
// AFL_BENCH_JSON, see obs/prof/bench_report.hpp); `afl-insight bench
// show|diff` consumes the snapshots.

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "obs/prof/bench_report.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace afl::bench {

/// Applies the AFL_* scale-override environment variables to `cfg`. This is
/// the one place the override set is defined — every bench (and the README)
/// honors exactly: AFL_ROUNDS, AFL_CLIENTS, AFL_CLIENTS_PER_ROUND,
/// AFL_SAMPLES, AFL_TEST_SAMPLES, AFL_EPOCHS.
inline void apply_env_overrides(ExperimentConfig& cfg) {
  cfg.rounds =
      static_cast<std::size_t>(env_or("AFL_ROUNDS", static_cast<int>(cfg.rounds)));
  cfg.num_clients =
      static_cast<std::size_t>(env_or("AFL_CLIENTS", static_cast<int>(cfg.num_clients)));
  cfg.clients_per_round = static_cast<std::size_t>(
      env_or("AFL_CLIENTS_PER_ROUND", static_cast<int>(cfg.clients_per_round)));
  cfg.samples_per_client =
      static_cast<std::size_t>(env_or("AFL_SAMPLES", static_cast<int>(cfg.samples_per_client)));
  cfg.test_samples = static_cast<std::size_t>(
      env_or("AFL_TEST_SAMPLES", static_cast<int>(cfg.test_samples)));
  cfg.local_epochs =
      static_cast<std::size_t>(env_or("AFL_EPOCHS", static_cast<int>(cfg.local_epochs)));
}

/// Baseline experiment configuration at the selected scale, with the AFL_*
/// environment overrides already applied.
inline ExperimentConfig scaled_config() {
  ExperimentConfig cfg;
  const BenchScale scale = bench_scale();
  if (scale == BenchScale::kFull) {
    cfg.num_clients = 100;  // the paper's CIFAR population
    cfg.clients_per_round = 10;
    cfg.samples_per_client = 20;
    cfg.test_samples = 800;
    cfg.rounds = 200;
    cfg.local_epochs = 2;
  } else {
    cfg.num_clients = 30;
    cfg.clients_per_round = 5;
    cfg.samples_per_client = 13;
    cfg.test_samples = 320;
    cfg.rounds = 100;
    cfg.local_epochs = 2;
  }
  apply_env_overrides(cfg);
  return cfg;
}

inline void print_header(const std::string& what, const std::string& paper_ref) {
  std::printf("== %s ==\n", what.c_str());
  std::printf("reproduces: %s | scale: %s | see EXPERIMENTS.md for paper-vs-measured\n\n",
              paper_ref.c_str(), bench_scale_name(bench_scale()));
}

inline std::string pct(double v) { return Table::fmt_pct(v); }

}  // namespace afl::bench
