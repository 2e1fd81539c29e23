#include "fl/aggregate.hpp"

#include <cstdint>

#include "fl/shard_aggregator.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

obs::Histogram& aggregate_hist() {
  static obs::Histogram& h = obs::metrics().histogram("afl.fl.aggregate.seconds");
  return h;
}

obs::Counter& aggregate_updates() {
  static obs::Counter& c = obs::metrics().counter("afl.fl.aggregate.updates");
  return c;
}

/// Both free functions are single-shard folds over the composable
/// ShardAggregator (docs/HIERARCHY.md); only the validation mode differs.
ParamSet fold_updates(const ParamSet& global,
                      const std::vector<ClientUpdate>& updates,
                      ShardAggregator::Mode mode) {
  ShardAggregator agg(global, mode);
  for (const auto& u : updates) agg.add(u);
  return finalize_partial(agg.partial(), global);
}

}  // namespace

ParamSet fedavg_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates) {
  AFL_PROF_SPAN("fl.aggregate", &aggregate_hist());
  obs::TraceSpan span("aggregate");
  span.field("algo", "fedavg")
      .field("updates", static_cast<std::uint64_t>(updates.size()))
      .field("tensors", static_cast<std::uint64_t>(global.size()));
  aggregate_updates().inc(updates.size());
  return fold_updates(global, updates, ShardAggregator::Mode::kFedAvg);
}

ParamSet hetero_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates) {
  AFL_PROF_SPAN("fl.aggregate", &aggregate_hist());
  obs::TraceSpan span("aggregate");
  span.field("algo", "hetero")
      .field("updates", static_cast<std::uint64_t>(updates.size()))
      .field("tensors", static_cast<std::uint64_t>(global.size()));
  aggregate_updates().inc(updates.size());
  return fold_updates(global, updates, ShardAggregator::Mode::kHetero);
}

}  // namespace afl
