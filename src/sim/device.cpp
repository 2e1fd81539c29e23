#include "sim/device.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace afl {

const char* device_tier_name(DeviceTier tier) {
  switch (tier) {
    case DeviceTier::kWeak:
      return "weak";
    case DeviceTier::kMedium:
      return "medium";
    case DeviceTier::kStrong:
      return "strong";
  }
  return "?";
}

std::size_t DeviceSim::capacity(Rng& rng) const {
  if (jitter <= 0.0) return base_capacity;
  const double f = 1.0 + rng.uniform(-jitter, jitter);
  return static_cast<std::size_t>(std::max(0.0, std::round(
      static_cast<double>(base_capacity) * f)));
}

std::size_t DeviceSim::max_capacity() const {
  if (jitter <= 0.0) return base_capacity;
  return static_cast<std::size_t>(std::round(static_cast<double>(base_capacity) * (1.0 + jitter)));
}

bool DeviceSim::responds(Rng& rng) const {
  if (availability >= 1.0) return true;
  return rng.uniform() < availability;
}

TierProportions TierProportions::parse(double w, double m, double s) {
  const double total = w + m + s;
  TierProportions p;
  p.weak = w / total;
  p.medium = m / total;
  p.strong = s / total;
  return p;
}

std::string TierProportions::label() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g:%g:%g", weak * 10, medium * 10, strong * 10);
  return buf;
}

std::size_t tier_capacity(const ModelPool& pool, DeviceTier tier) {
  // Exactly the level-head size: a weak device can train S1 (and every
  // smaller S), but not M_p; with capacity == size(S1) any M-level dispatch
  // gets adaptively pruned down into the S range.
  switch (tier) {
    case DeviceTier::kWeak:
      return pool.entry(pool.level_head_index(Level::kSmall)).params;
    case DeviceTier::kMedium:
      return pool.entry(pool.level_head_index(Level::kMedium)).params;
    case DeviceTier::kStrong:
      return pool.entry(pool.level_head_index(Level::kLarge)).params;
  }
  return 0;
}

std::vector<DeviceSim> make_devices(const ModelPool& pool, std::size_t num_clients,
                                    const TierProportions& proportions, Rng& rng,
                                    double jitter) {
  std::vector<DeviceTier> tiers;
  tiers.reserve(num_clients);
  const std::size_t n_weak =
      static_cast<std::size_t>(std::round(proportions.weak * num_clients));
  const std::size_t n_medium =
      static_cast<std::size_t>(std::round(proportions.medium * num_clients));
  for (std::size_t i = 0; i < num_clients; ++i) {
    if (i < n_weak) {
      tiers.push_back(DeviceTier::kWeak);
    } else if (i < n_weak + n_medium) {
      tiers.push_back(DeviceTier::kMedium);
    } else {
      tiers.push_back(DeviceTier::kStrong);
    }
  }
  rng.shuffle(tiers);
  std::vector<DeviceSim> devices(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i) {
    devices[i].tier = tiers[i];
    devices[i].base_capacity = tier_capacity(pool, tiers[i]);
    devices[i].jitter = jitter;
  }
  return devices;
}

}  // namespace afl
