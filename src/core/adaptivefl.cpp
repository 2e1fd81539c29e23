#include "core/adaptivefl.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "async/engine.hpp"
#include "fl/evaluate.hpp"
#include "nn/init.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace afl {
namespace {

/// Algorithm 1 as a RoundPolicy: uniform (or greedy) model draw from the
/// pool, RL client selection, device-side adaptive pruning, L1/M1/S1
/// evaluation; the engines' run core aggregates its one global (Algorithm
/// 2). Also implements the AsyncRoundPolicy seam: the same selector /
/// pruning / RL code runs under the async engine, where `taken_` becomes the
/// in-flight set.
class AdaptiveFlPolicy final : public AsyncRoundPolicy {
 public:
  AdaptiveFlPolicy(const ArchSpec& spec, const ModelPool& pool,
                   const FederatedDataset& data, const FlRunConfig& config,
                   const AdaptiveFlOptions& options, ClientSelector& selector,
                   ParamSet& global, bool has_initial)
      : spec_(spec),
        pool_(pool),
        data_(data),
        config_(config),
        options_(options),
        selector_(selector),
        global_(global),
        has_initial_(has_initial) {}

  std::string algorithm_name() const override {
    return options_.greedy_dispatch
               ? "AdaptiveFL+Greed"
               : std::string("AdaptiveFL+") + selection_strategy_name(options_.strategy);
  }

  void init_global(Rng& rng) override {
    if (has_initial_) return;
    Model full_model = build_full_model(spec_, &rng);
    global_ = full_model.export_params();
  }

  void observe_channels(const std::vector<double>& quality) override {
    // Per-client channel quality is an RL selector observation feature.
    selector_.set_channel_quality(quality);
  }

  // Steps 5 and 6 (Model Uploading and Aggregation, Algorithm 2) run in the
  // engines' run core, which folds every returned submodel into this global.
  std::vector<ParamSet*> globals() override { return {&global_}; }

  void begin_round(std::size_t, Rng&) override { taken_.clear(); }

  void begin_async(std::size_t) override {
    // Run-scoped reset: under the async engine `taken_` tracks in-flight
    // clients across flushes instead of a per-round cohort.
    taken_.clear();
  }

  void set_client_busy(std::size_t client, bool busy) override {
    const auto it = std::lower_bound(taken_.begin(), taken_.end(), client);
    const bool listed = it != taken_.end() && *it == client;
    if (busy && !listed) taken_.insert(it, client);
    if (!busy && listed) taken_.erase(it);
  }

  std::size_t min_trainable_params() const override {
    // Every pool entry contains the smallest one (entries ascend), so
    // adapt() fails only for a capacity below its size.
    return pool_.entry(0).params;
  }

  bool select(ClientSlot& s, Rng& rng) override {
    // Step 2 (Model Selection): uniform draw from the pool — or always L1
    // for the +Greed ablation.
    const std::size_t sent = options_.greedy_dispatch ? pool_.largest_index()
                                                      : rng.uniform_index(pool_.size());
    // Step 3 (Client Selection).
    const auto client = selector_.select(sent, taken_, rng);
    if (!client) return false;  // every client already has a model this round
    set_client_busy(*client, true);
    s.client = *client;
    s.sent_index = sent;
    s.params_sent = pool_.entry(sent).params;
    return true;
  }

  void adapt(ClientSlot& s) override {
    // Step 4 (available-resource-aware pruning): the largest sub-plan of the
    // dispatched model that fits the device's instantaneous capacity.
    const auto back = pool_.adapt(s.sent_index, s.capacity);
    if (!back) return;
    s.trainable = true;
    s.back_index = *back;
    s.params_back = pool_.entry(*back).params;
  }

  void on_no_response(const ClientSlot& s) override {
    selector_.tables().update_no_response(pool_.entry(s.sent_index).level, s.client);
  }

  void on_adapt_failure(const ClientSlot& s) override {
    selector_.tables().update_failure(s.sent_index, pool_.entry(s.sent_index).level,
                                      s.client);
  }

  void on_accepted(const ClientSlot& s) override {
    // RL table update (Algorithm 1, lines 12-26). Depends only on what was
    // sent and what will come back, so it lands here — before training —
    // keeping all table mutations on the sequential planning path.
    selector_.tables().update(s.sent_index, pool_.entry(s.sent_index).level,
                              s.back_index, pool_.entry(s.back_index).level, s.client);
  }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    // The dispatched pool model, split from the slot's source (the global,
    // or its shard's model between divergent syncs); the device prunes it
    // in local_view().
    return pool_.split(*s.source, s.sent_index);
  }

  ParamSet local_view(const ClientSlot& s) const override {
    // s.rx is the codec-decoded downlink payload (sized sent_index); the
    // device prunes it to what it can train. Identity path: split the
    // source directly.
    return pool_.split(s.rx ? *s.rx : *s.source, s.back_index);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(pool_.build(s.back_index), local_view(s), data_, s.client,
                        config_.local, rng);
  }

  void end_round(std::size_t round, RoundTelemetry& telemetry) override {
    // Selector-policy telemetry: how concentrated has client selection become
    // for the largest model, plus the round's RL table snapshot.
    const double entropy = selector_.selection_entropy(pool_.largest_index());
    telemetry.set_selector_entropy(entropy);
    obs::metrics().gauge("afl.rl.selector.entropy").set(entropy);
    if (obs::trace_enabled()) {
      obs::TraceEvent tables_ev("rl_tables");
      tables_ev.field("round", static_cast<std::uint64_t>(round))
          .field("selector_entropy", entropy)
          .field("mean_curiosity", selector_.tables().mean_curiosity())
          .field("mean_resource", selector_.tables().mean_resource());
      tables_ev.emit();
    }
  }

  void snapshot(SnapshotStream& s) override {
    // Engine snapshot (docs/POPULATION.md): the RL tables' sparse state
    // beyond the global the run core saves. The dump is sorted by (row,
    // client), so two snapshots of identical logical state are
    // byte-identical. The busy / taken set is NOT saved: the sync engine
    // resets it per round, and the async engine re-marks it from the
    // restored in-flight set.
    RlTables::Dump dump = selector_.tables().dump();
    s.items(dump.cells, 3 * sizeof(double), "RL table cell", [&](std::array<double, 3>& cell) {
      for (double& v : cell) s.f64(v);
    });
    s.items(dump.touched, sizeof(std::uint64_t), "RL touched client",
            [&](std::size_t& client) { s.u64(client); });
    if (s.resuming()) selector_.tables().restore(dump);
  }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    const std::size_t heads[3] = {pool_.level_head_index(Level::kLarge),
                                  pool_.level_head_index(Level::kMedium),
                                  pool_.level_head_index(Level::kSmall)};
    double sum = 0.0;
    double full = 0.0;
    for (std::size_t h : heads) {
      const PoolEntry& e = pool_.entry(h);
      const double acc = eval_params(spec_, e.plan, {}, pool_.split(global_, h),
                                     data_.test, config_.eval_batch, workers);
      result.level_acc[e.label()] = acc;
      sum += acc;
      if (e.level == Level::kLarge) full = acc;
    }
    result.final_full_acc = full;
    result.final_avg_acc = sum / 3.0;
    AFL_LOG_DEBUG << result.algorithm << ": full " << result.final_full_acc
                  << ", avg " << result.final_avg_acc;
  }

 private:
  const ArchSpec& spec_;
  const ModelPool& pool_;
  const FederatedDataset& data_;
  const FlRunConfig& config_;
  const AdaptiveFlOptions& options_;
  ClientSelector& selector_;
  ParamSet& global_;
  bool has_initial_;

  std::vector<std::size_t> taken_;  // ascending: this round's clients (async: in flight)
};

}  // namespace

void AdaptiveFl::set_initial_params(ParamSet params) {
  Model probe = build_full_model(spec_);
  probe.import_params(params);  // validates names and shapes
  global_ = std::move(params);
  has_initial_ = true;
}

AdaptiveFl::AdaptiveFl(const ArchSpec& spec, const PoolConfig& pool_config,
                       const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                       FlRunConfig run_config, AdaptiveFlOptions options)
    : spec_(spec),
      pool_(spec, pool_config),
      data_(data),
      devices_(devices),
      config_(run_config),
      options_(options),
      selector_(pool_, data.num_clients(), options.strategy) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument("AdaptiveFl: one device profile per client required");
  }
}

RunResult AdaptiveFl::run() {
  AdaptiveFlPolicy policy(spec_, pool_, data_, config_, options_, selector_, global_,
                          has_initial_);
  return run_policy(config_, &devices_, policy);
}

}  // namespace afl
