#include "core/adaptivefl.hpp"

#include <array>
#include <memory>
#include <stdexcept>
#include <utility>

#include "async/engine.hpp"
#include "engine/round_engine.hpp"
#include "fl/aggregate.hpp"
#include "fl/evaluate.hpp"
#include "hier/config.hpp"
#include "nn/init.hpp"
#include "pop/population.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace afl {
namespace {

/// Algorithm 1 as a RoundPolicy: uniform (or greedy) model draw from the
/// pool, RL client selection, device-side adaptive pruning, heterogeneous
/// aggregation, L1/M1/S1 evaluation. Also implements the AsyncRoundPolicy
/// seam: the same selector / pruning / RL / aggregation code runs under the
/// async engine, where `taken_` becomes the in-flight set and commits carry
/// a staleness weight. The HierRoundPolicy seam on top exposes the global
/// parameter set to sharded round-engine runs, which own aggregation.
class AdaptiveFlPolicy final : public HierRoundPolicy {
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

  void begin_round(std::size_t, Rng&) override {
    taken_.assign(data_.num_clients(), false);
    updates_.clear();
  }

  void begin_async(std::size_t) override {
    // Run-scoped reset: under the async engine `taken_` tracks in-flight
    // clients across flushes instead of a per-round cohort.
    taken_.assign(data_.num_clients(), false);
    updates_.clear();
  }

  void set_client_busy(std::size_t client, bool busy) override {
    taken_[client] = busy;
  }

  bool select(ClientSlot& s, Rng& rng) override {
    // Step 2 (Model Selection): uniform draw from the pool — or always L1
    // for the +Greed ablation.
    const std::size_t sent = options_.greedy_dispatch ? pool_.largest_index()
                                                      : rng.uniform_index(pool_.size());
    // Step 3 (Client Selection).
    const auto client = selector_.select(sent, taken_, rng);
    if (!client) return false;  // every client already has a model this round
    taken_[*client] = true;
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
    // Real-payload transport: the wire carries exactly the dispatched
    // submodel, so byte accounting and codec error reflect what ships.
    return pool_.split(global_, s.sent_index);
  }

  ParamSet upload_reference(const ClientSlot& s) const override {
    // Mirrors execute()'s import exactly (docs/COMPRESSION.md).
    return s.rx ? pool_.split(*s.rx, s.back_index)
                : pool_.split(global_, s.back_index);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    Model local = pool_.build(s.back_index);
    // s.rx is the codec-decoded downlink payload (sized sent_index); the
    // device prunes it to what it can train. Identity path: read the frozen
    // global directly.
    local.import_params(s.rx ? pool_.split(*s.rx, s.back_index)
                             : pool_.split(global_, s.back_index));
    // Lazy datasets (scale-out populations) materialize the client's shard
    // here on the worker thread and drop it when training ends; stored
    // datasets are read in place.
    const Dataset* stored = data_.stored_client(s.client);
    const Dataset shard = stored ? Dataset{} : data_.materialize_client(s.client);
    const Dataset& client_data = stored ? *stored : shard;
    TrainOutcome out;
    out.stats = local_train(local, client_data, config_.local, rng);
    out.params = local.export_params();
    out.samples = client_data.size();
    return out;
  }

  void commit(const ClientSlot&, TrainOutcome outcome) override {
    // Step 5 (Model Uploading).
    updates_.push_back({std::move(outcome.params), outcome.samples});
  }

  void commit_weighted(const ClientSlot&, TrainOutcome outcome,
                       double weight_scale) override {
    // Async path: the staleness discount scales the data-size weight.
    updates_.push_back({std::move(outcome.params), outcome.samples, weight_scale});
  }

  const ParamSet& hier_global() const override { return global_; }

  void hier_set_global(ParamSet global) override { global_ = std::move(global); }

  ParamSet hier_dispatch_params(const ClientSlot& s,
                                const ParamSet& model) const override {
    // Same wire contract as dispatch_params(), split from the shard's model.
    return pool_.split(model, s.sent_index);
  }

  void aggregate(std::size_t) override {
    // Step 6 (Model Aggregation, Algorithm 2). Cleared here (not only in
    // begin_round) because the async engine aggregates per buffer flush
    // without round boundaries.
    global_ = hetero_aggregate(global_, updates_);
    updates_.clear();
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

  void snapshot_state(SnapshotWriter& w) const override {
    // Engine snapshot (docs/POPULATION.md): the global model plus the RL
    // tables' sparse state. The dump is sorted by (row, client), so two
    // snapshots of identical logical state are byte-identical. The busy /
    // taken set is NOT saved: the sync engine resets it per round, and the
    // async engine re-marks it from the restored in-flight set.
    w.params(global_);
    const RlTables::Dump dump = selector_.tables().dump();
    w.u64(dump.cells.size());
    for (const std::array<double, 3>& cell : dump.cells) {
      w.f64(cell[0]);
      w.f64(cell[1]);
      w.f64(cell[2]);
    }
    w.u64(dump.touched.size());
    for (std::size_t client : dump.touched) w.u64(client);
  }

  void restore_state(SnapshotReader& r) override {
    global_ = r.params();
    RlTables::Dump dump;
    dump.cells.resize(r.u64());
    for (std::array<double, 3>& cell : dump.cells) {
      cell[0] = r.f64();
      cell[1] = r.f64();
      cell[2] = r.f64();
    }
    dump.touched.resize(r.u64());
    for (std::size_t& client : dump.touched) client = r.u64();
    selector_.tables().restore(dump);
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

  std::vector<bool> taken_;
  std::vector<ClientUpdate> updates_;
};

}  // namespace

void AdaptiveFl::set_initial_params(ParamSet params) {
  Model probe = build_full_model(spec_);
  probe.import_params(params);  // validates names and shapes
  global_ = std::move(params);
  has_initial_ = true;
}

AdaptiveFl::AdaptiveFl(const ArchSpec& spec, const PoolConfig& pool_config,
                       const FederatedDataset& data, std::vector<DeviceSim> devices,
                       FlRunConfig run_config, AdaptiveFlOptions options)
    : spec_(spec),
      pool_(spec, pool_config),
      data_(data),
      devices_(std::move(devices)),
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
  // Population dynamics (src/pop/, docs/POPULATION.md): churn schedules
  // attach to the device fleet, per-client channel profiles install into the
  // engine's transport, and the sampled channel quality becomes an RL
  // selector observation feature. A null population is a static fleet and
  // leaves every engine path byte-identical.
  const pop::PopConfig pop_cfg =
      config_.pop ? *config_.pop : pop::PopConfig::from_env();
  std::unique_ptr<pop::Population> population =
      pop::Population::create(pop_cfg, data_.num_clients(), config_.seed);
  if (population) {
    population->attach(devices_);
    if (pop_cfg.channels) {
      const net::NetConfig net_cfg =
          config_.net ? *config_.net : net::NetConfig::from_env();
      population->sample_channels(net_cfg.channel);
      selector_.set_channel_quality(population->channel_quality());
    }
  }
  const async::AsyncConfig async_cfg =
      config_.async ? *config_.async : async::AsyncConfig::from_env();
  const hier::HierConfig hier_cfg =
      config_.hier ? *config_.hier : hier::HierConfig::from_env();
  if (async_cfg.enabled && hier_cfg.enabled) {
    throw std::invalid_argument(
        "AdaptiveFl: async and hierarchical execution are mutually exclusive");
  }
  if (async_cfg.enabled) {
    async::AsyncEngine engine(config_, async_cfg, &devices_, population.get());
    return engine.run(policy);
  }
  RoundEngine engine(config_, &devices_, population.get(), hier_cfg);
  return engine.run(policy);
}

}  // namespace afl
