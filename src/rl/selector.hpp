#pragma once
// Client selection strategies (§3.3 + the Figure 5 ablation variants).
//
// No per-client array is stored or scanned: each pass walks the clients in
// order, touched and taken ones with their own weight, each gap between them
// a run sharing one, and run_steps() (rl/run_steps.hpp) adds a run's doubles
// exactly as a dense weight vector's loop would, in time that grows with the
// binades the sum crosses. A selection therefore costs O((touched + taken) x
// binades), not O(clients) (docs/HIERARCHY.md, "Run-form selection").

#include <optional>
#include <vector>

#include "prune/model_pool.hpp"
#include "rl/tables.hpp"
#include "util/rng.hpp"

namespace afl {

enum class SelectionStrategy {
  kResourceCuriosity,  // AdaptiveFL+CS (the full method)
  kCuriosityOnly,      // AdaptiveFL+C
  kResourceOnly,       // AdaptiveFL+S
  kRandom,             // AdaptiveFL+Random
};

const char* selection_strategy_name(SelectionStrategy s);

class ClientSelector {
 public:
  ClientSelector(const ModelPool& pool, std::size_t num_clients,
                 SelectionStrategy strategy);

  RlTables& tables() { return tables_; }
  const RlTables& tables() const { return tables_; }

  /// Optional per-client channel-quality observation feature in (0, 1]
  /// (src/pop/, docs/POPULATION.md): selection weights are multiplied by the
  /// client's quality, biasing the learned policy toward well-connected
  /// clients the way the wireless-FL literature conditions scheduling on
  /// channel state. An empty vector (the default) leaves the selection
  /// arithmetic — and therefore legacy RNG streams — byte-identical.
  void set_channel_quality(std::vector<double> quality) {
    channel_quality_ = std::move(quality);
  }
  const std::vector<double>& channel_quality() const { return channel_quality_; }

  /// Picks a client for pool entry `model_index`, excluding the clients in
  /// `taken`, ascending ids (each client trains at most one model per round;
  /// ids >= the client count are ignored). Returns nullopt when no client is
  /// available. Draws exactly as Rng::categorical(probabilities(model_index,
  /// taken)) would.
  std::optional<std::size_t> select(std::size_t model_index,
                                    const std::vector<std::size_t>& taken, Rng& rng) const;
  /// The same with `taken` as a mask (true = taken), turned into ids first.
  std::optional<std::size_t> select(std::size_t model_index,
                                    const std::vector<bool>& taken, Rng& rng) const;

  /// Selection probabilities P(m_i, c) over all clients (taken ones get 0).
  std::vector<double> probabilities(std::size_t model_index,
                                    const std::vector<std::size_t>& taken) const;
  std::vector<double> probabilities(std::size_t model_index,
                                    const std::vector<bool>& taken) const;

  /// Pool indices of the sublevels belonging to `level` (the k = T_p..T_1
  /// range of the R_s numerator).
  std::vector<std::size_t> level_entries(Level level) const;

  /// Normalized Shannon entropy (in [0, 1]) of the selection distribution for
  /// `model_index` with no clients taken. 1 = uniform (no learned preference),
  /// 0 = deterministic. Telemetry for how concentrated the RL policy has
  /// become.
  double selection_entropy(std::size_t model_index) const;

 private:
  struct Weights;  // the run form of one selection distribution (selector.cpp)
  Weights weights(std::size_t model_index, const std::vector<std::size_t>& taken) const;

  const ModelPool& pool_;
  std::size_t num_clients_;
  SelectionStrategy strategy_;
  RlTables tables_;
  std::vector<double> channel_quality_;  // empty = feature off
};

}  // namespace afl
