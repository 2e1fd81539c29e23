#pragma once
// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (weight init, data synthesis,
// Dirichlet partitioning, client sampling, RL selection) draw from an afl::Rng
// seeded explicitly, so a full federated run is bit-reproducible given a seed.

#include <cstdint>
#include <vector>

namespace afl {

/// xoshiro256** PRNG. Small, fast, and good enough statistical quality for
/// simulation workloads; not for cryptographic use.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached pair).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Gamma(shape, 1) sampler (Marsaglia-Tsang); shape > 0.
  double gamma(double shape);

  /// Dirichlet(alpha, ..., alpha) over `k` categories.
  std::vector<double> dirichlet(double alpha, std::size_t k);

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-client streams). The
  /// child's stream depends on how many values this generator has produced
  /// so far, so fork order matters; prefer derive() when a caller needs a
  /// stream that is stable regardless of evaluation order.
  Rng fork();

  /// Stateless derivation of an independent stream keyed by
  /// (seed, round, client): splitmix64-finalizes the three words into one
  /// generator seed. Unlike fork(), the result does not depend on any
  /// generator's position, so parallel per-client training can draw from
  /// derive(seed, round, client) and stay bit-identical for any thread
  /// count or execution order.
  static Rng derive(std::uint64_t seed, std::uint64_t round, std::uint64_t client);

  /// Four-word derivation with an extra stream-tag word between the seed and
  /// the round — (seed, shard, round, client). Used where a stream must be
  /// scoped to an aggregation shard or a subsystem (sharded runs, lazy
  /// dataset synthesis; docs/HIERARCHY.md). Note that the training streams
  /// of sharded runs deliberately use the three-word overload so the shard
  /// count can never perturb results.
  static Rng derive(std::uint64_t seed, std::uint64_t shard,
                    std::uint64_t round, std::uint64_t client);

  /// Complete generator state, exposed for engine snapshots
  /// (docs/POPULATION.md). Restoring a State resumes the stream exactly,
  /// including the Box-Muller cached half-pair.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, has_cached_normal_, cached_normal_};
  }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
  }

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace afl
