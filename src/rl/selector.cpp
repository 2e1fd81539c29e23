#include "rl/selector.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "obs/prof/prof.hpp"
#include "rl/run_steps.hpp"

namespace afl {

const char* selection_strategy_name(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kResourceCuriosity:
      return "CS";
    case SelectionStrategy::kCuriosityOnly:
      return "C";
    case SelectionStrategy::kResourceOnly:
      return "S";
    case SelectionStrategy::kRandom:
      return "Random";
  }
  return "?";
}

ClientSelector::ClientSelector(const ModelPool& pool, std::size_t num_clients,
                               SelectionStrategy strategy)
    : pool_(pool),
      num_clients_(num_clients),
      strategy_(strategy),
      tables_(pool.size(), pool.config().p, num_clients) {}

std::vector<std::size_t> ClientSelector::level_entries(Level level) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_.entry(i).level == level) out.push_back(i);
  }
  return out;
}

// One selection distribution in run form. Points are the touched and taken
// clients, ascending, with their own reward (0 if taken); clients between two
// points share `fresh`. Channel quality scales the clients it covers. Passes
// recompute w_c / div (div = 1 gives w_c) in the order of a dense vector, and
// repeat one rounded step over each run as a dense loop does one client at a
// time: run_steps() (rl/run_steps.hpp) gives that loop's bits.
struct ClientSelector::Weights {
  const double* quality;  // covers clients [0, nq)
  std::size_t nq;
  std::size_t n;
  std::vector<std::pair<std::size_t, double>> points;  // (client, reward)
  double fresh = 0.0;
  double total = 0.0;  // sum(1.0), after the uniform fallback

  static bool never(double) { return false; }

  // Out of line so no caller fuses the product into a sum: a dense weight
  // vector rounds each weight to a double before it is added.
  [[gnu::noinline]] double value(std::size_t c, double reward, double div) const {
    return (c < nq ? reward * std::max(quality[c], 0.0) : reward) / div;
  }

  // Calls run(b, e, v) in client order for each run [b, e) of clients weighing
  // v each (points, quality-scaled clients: runs of one) until it returns true.
  template <typename Run>
  bool walk(double div, Run&& run) const {
    std::size_t b = 0;
    const auto gap = [&](std::size_t e) {
      for (; b < e && b < nq; ++b) {
        if (run(b, b + 1, value(b, fresh, div))) return true;
      }
      return b < e && run(b, e, fresh / div);
    };
    for (const auto& [c, reward] : points) {
      if (gap(c) || run(c, c + 1, value(c, reward, div))) return true;
      b = c + 1;
    }
    return gap(n);
  }

  double sum(double div) const {
    double s = 0.0;
    walk(div, [&](std::size_t b, std::size_t e, double v) {
      s = run_steps(s, e - b, [v](double x) { return x + v; }, never);
      return false;
    });
    return s;
  }

  // Rng::categorical's scan over p_c = w_c / total: the first client at which
  // r -= p_c drops below zero, else the last with p_c > 0, else the last.
  std::size_t pick(double r) const {
    std::size_t hit = n - 1;
    walk(total, [&](std::size_t b, std::size_t e, double v) {
      std::size_t kept = 0;  // subtractions that left r non-negative
      r = run_steps(r, e - b, [v](double x) { return x - v; },
                    [](double x) { return x < 0.0; }, &kept);
      const std::size_t c = b + kept;
      if (c < e || v > 0.0) hit = std::min(c, e - 1);
      return c < e;
    });
    return hit;
  }

  // Sum of -p log p in dense order, with one logarithm per run. The step
  // rounds h -= p * lp as the dense loop's h -= p * log(p) is: fused on FMA
  // targets, spelled out because a run's loop-invariant p * lp would be
  // hoisted and rounded.
  double entropy() const {
    double h = 0.0;
    walk(total, [&](std::size_t b, std::size_t e, double p) {
      if (p <= 0.0) return false;
      const double lp = std::log(p);
#ifdef __FP_FAST_FMA
      h = run_steps(h, e - b, [p, lp](double x) { return std::fma(-p, lp, x); }, never);
#else
      h = run_steps(h, e - b, [p, lp](double x) { return x - p * lp; }, never);
#endif
      return false;
    });
    return h;
  }
};

ClientSelector::Weights ClientSelector::weights(
    std::size_t model_index, const std::vector<std::size_t>& taken) const {
  const Level type = pool_.entry(model_index).level;
  const std::vector<std::size_t> entries = level_entries(type);
  const auto reward_of = [&](std::size_t c) {
    switch (strategy_) {
      case SelectionStrategy::kResourceCuriosity:
        return tables_.reward(entries, type, c);
      case SelectionStrategy::kCuriosityOnly:
        return tables_.curiosity_reward(type, c);
      case SelectionStrategy::kResourceOnly:
        return std::min(0.5, tables_.resource_reward(entries, c));
      case SelectionStrategy::kRandom:
        return 1.0;
    }
    return 0.0;
  };
  // The points: taken clients and touched ones.
  const auto taken_end = std::lower_bound(taken.begin(), taken.end(), num_clients_);
  const std::vector<std::size_t>& touched = tables_.touched();
  std::vector<std::size_t> ids;
  std::set_union(taken.begin(), taken_end, touched.begin(), touched.end(),
                 std::back_inserter(ids));
  const auto is_taken = [&](std::size_t c) {
    return std::binary_search(taken.begin(), taken_end, c);
  };
  Weights w{channel_quality_.data(), std::min(channel_quality_.size(), num_clients_),
            num_clients_, {}};
  for (std::size_t c : ids) w.points.emplace_back(c, is_taken(c) ? 0.0 : reward_of(c));
  // Every untouched client reads all-1.0 tables, so the first one's reward
  // is the reward of all of them.
  std::size_t first_fresh = 0;
  for (std::size_t c : touched) first_fresh += c == first_fresh;
  if (first_fresh < num_clients_) w.fresh = reward_of(first_fresh);
  w.total = w.sum(1.0);
  if (w.total <= 0.0) {
    // Every candidate has zero reward: fall back to uniform over untaken
    // clients so a model is still dispatched.
    for (auto& [c, reward] : w.points) reward = is_taken(c) ? 0.0 : 1.0;
    w.fresh = 1.0;
    w.nq = 0;
    w.total = w.sum(1.0);
  }
  return w;
}

namespace {

// The clients a mask marks taken, ascending.
std::vector<std::size_t> taken_ids(const std::vector<bool>& taken) {
  std::vector<std::size_t> ids;
  for (auto it = std::find(taken.begin(), taken.end(), true); it != taken.end();
       it = std::find(it + 1, taken.end(), true)) {
    ids.push_back(static_cast<std::size_t>(it - taken.begin()));
  }
  return ids;
}

}  // namespace

std::vector<double> ClientSelector::probabilities(
    std::size_t model_index, const std::vector<std::size_t>& taken) const {
  const Weights w = weights(model_index, taken);
  std::vector<double> probs(num_clients_, 0.0);
  if (w.total <= 0.0) return probs;  // all clients taken
  w.walk(w.total, [&](std::size_t b, std::size_t e, double v) {
    for (; b < e; ++b) probs[b] = v;
    return false;
  });
  return probs;
}

std::vector<double> ClientSelector::probabilities(std::size_t model_index,
                                                  const std::vector<bool>& taken) const {
  return probabilities(model_index, taken_ids(taken));
}

double ClientSelector::selection_entropy(std::size_t model_index) const {
  AFL_PROF_SPAN("rl.selection_entropy");
  if (num_clients_ < 2) return 0.0;
  const Weights w = weights(model_index, std::vector<std::size_t>{});
  const double h = w.total <= 0.0 ? 0.0 : w.entropy();
  return h / std::log(static_cast<double>(num_clients_));
}

std::optional<std::size_t> ClientSelector::select(std::size_t model_index,
                                                  const std::vector<std::size_t>& taken,
                                                  Rng& rng) const {
  const Weights w = weights(model_index, taken);
  const double psum = w.total <= 0.0 ? 0.0 : w.sum(w.total);  // 0: all taken
  if (psum <= 0.0) return std::nullopt;
  return w.pick(rng.uniform() * psum);
}

std::optional<std::size_t> ClientSelector::select(std::size_t model_index,
                                                  const std::vector<bool>& taken,
                                                  Rng& rng) const {
  return select(model_index, taken_ids(taken), rng);
}

}  // namespace afl
