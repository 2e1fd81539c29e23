#pragma once
// Heterogeneous AIoT device simulation (§4.1 "Device Heterogeneity Settings").
//
// Three tiers — weak devices can hold only S-level models, medium devices
// M- or S-level, strong devices any model. Capacities are expressed in model
// parameters and derived from the pool's level-head sizes. Uncertain
// environments are modeled as multiplicative jitter on the available capacity
// each round; the server never observes any of this (it must learn it through
// the RL tables).

#include <cstddef>
#include <string>
#include <vector>

#include "prune/model_pool.hpp"
#include "util/rng.hpp"

namespace afl {

enum class DeviceTier { kWeak = 0, kMedium = 1, kStrong = 2 };
const char* device_tier_name(DeviceTier tier);

struct DeviceSim {
  DeviceTier tier = DeviceTier::kStrong;
  std::size_t base_capacity = 0;  // parameters
  double jitter = 0.0;            // capacity(t) = base * (1 + U(-jitter, jitter))
  /// Probability the device responds at all this round (1 = always). Models
  /// dropouts / unreachable stragglers; the server only finds out by the
  /// missing reply. Churn (src/pop/) is decided before this draw, by the
  /// engine's population.
  double availability = 1.0;

  /// Available capacity this round.
  std::size_t capacity(Rng& rng) const;

  /// The largest capacity() can draw: round(base_capacity * (1 + jitter)).
  std::size_t max_capacity() const;

  /// Whether the device responds this round. Draws from `rng` only when
  /// availability < 1, so fully-available fleets keep their RNG streams.
  bool responds(Rng& rng) const;
};

struct TierProportions {
  double weak = 0.4, medium = 0.3, strong = 0.3;  // paper default 4:3:3

  static TierProportions parse(double w, double m, double s);
  std::string label() const;  // "4:3:3"
};

/// Base capacity for each tier from the pool: weak fits exactly S1, medium
/// M1, strong L1 (each with headroom below the next level's smallest entry).
std::size_t tier_capacity(const ModelPool& pool, DeviceTier tier);

/// Builds `num_clients` devices with the given proportions, shuffled by `rng`
/// so tier and data shard are independent.
std::vector<DeviceSim> make_devices(const ModelPool& pool, std::size_t num_clients,
                                    const TierProportions& proportions, Rng& rng,
                                    double jitter = 0.0);

}  // namespace afl
