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

}  // namespace

ParamSet finalize_aggregate(const ShardAggregator& agg, const ParamSet& global,
                            const char* algo) {
  AFL_PROF_SPAN("fl.aggregate", &aggregate_hist());
  obs::TraceSpan span("aggregate");
  span.field("algo", algo)
      .field("updates", static_cast<std::uint64_t>(agg.updates()))
      .field("tensors", static_cast<std::uint64_t>(global.size()));
  aggregate_updates().inc(agg.updates());
  return finalize_partial(agg.partial(), global);
}

// Both free functions are single-shard folds over the composable
// ShardAggregator (docs/HIERARCHY.md); only the validation mode differs.

ParamSet fedavg_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates) {
  ShardAggregator agg(global, ShardAggregator::Mode::kFedAvg);
  for (const auto& u : updates) agg.add(u);
  return finalize_aggregate(agg, global, "fedavg");
}

ParamSet hetero_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates) {
  ShardAggregator agg(global);
  for (const auto& u : updates) agg.add(u);
  return finalize_aggregate(agg, global, "hetero");
}

}  // namespace afl
