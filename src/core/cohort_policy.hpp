#pragma once
// Shared plumbing of the five baselines (All-Large, Decoupled, HeteroFL,
// ScaleFL, FedRolex): a uniform cohort drawn at the start of each round, and
// a fixed ladder of levels matched to each device's capacity.

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/round_engine.hpp"

namespace afl {

/// A RoundPolicy that samples K clients uniformly per round and ships each
/// the largest level that fits its capacity.
class CohortPolicy : public RoundPolicy {
 public:
  /// `level_params` holds each level's parameter count, largest first; a
  /// slot's sent_index and back_index index into it.
  CohortPolicy(const FederatedDataset& data, const FlRunConfig& config,
               std::vector<std::size_t> level_params)
      : data_(data), config_(config), level_params_(std::move(level_params)) {}

  void begin_round(std::size_t, Rng& rng) override {
    cohort_ = sample_clients(data_.num_clients(), config_.clients_per_round, rng);
  }

  bool select(ClientSlot& s, Rng&) override {
    if (s.slot >= cohort_.size()) return false;
    s.client = cohort_[s.slot];
    return true;
  }

  void adapt(ClientSlot& s) override {
    for (std::size_t l = 0; l < level_params_.size(); ++l) {
      if (level_params_[l] <= s.capacity) {
        s.sent_index = s.back_index = l;
        s.params_sent = s.params_back = level_params_[l];
        s.trainable = true;
        return;
      }
    }
    // Even the smallest level exceeds the instantaneous capacity: the server
    // still shipped it (it cannot observe device state), so the dispatch is
    // recorded — and wasted.
    s.sent_index = level_params_.size() - 1;
    s.params_sent = level_params_.back();
  }

 protected:
  const FederatedDataset& data_;
  const FlRunConfig& config_;

 private:
  std::vector<std::size_t> level_params_;
  std::vector<std::size_t> cohort_;
};

}  // namespace afl
