#include "engine/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "async/virtual_clock.hpp"
#include "engine/dispatch.hpp"
#include "engine/telemetry.hpp"
#include "fl/shard_aggregator.hpp"
#include "hier/config.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl {

using engine::DispatchFailure;

namespace {

/// One aggregation shard of a sharded run. Its partition's updates fold into
/// the run's root aggregator: straight away in lockstep mode, and through a
/// round partial that first advances a shard-local model when shard models
/// diverge between syncs. The fold is exact integer addition, so the root
/// does not depend on how the clients split across edges.
class EdgeAggregator {
 public:
  /// `global` provides the structure snapshot; `track_local_model` is the
  /// sync_every > 1 mode, where the edge re-finalizes a local model every
  /// round instead of tracking the root global.
  EdgeAggregator(const ParamSet& global, bool track_local_model) {
    if (track_local_model) {
      round_.emplace(global);
      model_ = global;
    }
  }

  /// Folds one update by rvalue, so no ParamSet is ever duplicated: into the
  /// round partial when tracking a local model, else into `root`.
  void add(ClientUpdate&& update, ShardAggregator& root) {
    (round_ ? *round_ : root).add(std::move(update));
    ++updates_;
  }

  /// Shard-local model (only meaningful when tracking one).
  const ParamSet& model() const { return model_; }
  /// Resets the local model to a freshly synced global.
  void set_model(const ParamSet& global) {
    if (round_) model_ = global;
  }

  /// Closes the shard's round: when tracking a local model, finalizes the
  /// round partial into it, merges the partial into `root` and clears it in
  /// place. Returns the number of updates the round contributed.
  std::size_t end_round(ShardAggregator& root) {
    if (round_ && updates_ > 0) {
      // Elements the shard's clients did not cover keep the shard's
      // previous value.
      model_ = finalize_partial(round_->partial(), model_);
      root.merge(round_->partial());
      round_->reset();
    }
    return std::exchange(updates_, 0);
  }

 private:
  std::optional<ShardAggregator> round_;  // divergent mode only
  ParamSet model_;
  std::size_t updates_ = 0;
};

}  // namespace

TrainOutcome train_client(Model model, ParamSet view, const FederatedDataset& data,
                          std::size_t client, const LocalTrainConfig& cfg, Rng& rng) {
  model.import_params(view);
  view.clear();  // the model holds its own copy while it trains
  const Dataset* stored = data.stored_client(client);
  const Dataset shard = stored ? Dataset{} : data.materialize_client(client);
  const Dataset& client_data = stored ? *stored : shard;
  TrainOutcome out;
  out.stats = local_train(model, client_data, cfg, rng);
  out.params = model.export_params();
  out.samples = client_data.size();
  return out;
}

engine::EngineBase::EngineBase(const FlRunConfig& config,
                               const std::vector<DeviceSim>* devices)
    : config_(config),
      devices_(devices),
      threads_(config.threads > 0 ? config.threads : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(), config.seed) {
  // Churn and per-client channels act on a fleet: a run without one (the
  // idealized All-Large) keeps its static, ideal devices.
  if (devices_ == nullptr) return;
  population_ = pop::Population::create(config.pop ? *config.pop : pop::PopConfig::from_env(),
                                        devices_->size(), config.seed);
  if (population_ == nullptr || !population_->config().channels) return;
  population_->sample_channels(transport_.config().channel);
  transport_.set_client_channels(population_->channels());
}

RoundEngine::RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices)
    : EngineBase(config, devices) {
  const hier::HierConfig sharding = config.hier ? *config.hier : hier::HierConfig::from_env();
  sharded_ = sharding.enabled;
  // A disabled config still carries the default shard count: flat is one
  // shard, merged every round.
  shards_ = sharded_ ? std::max<std::size_t>(sharding.shards, 1) : 1;
  sync_every_ = sharded_ ? std::max<std::size_t>(sharding.sync_every, 1) : 1;
}

RunResult RoundEngine::run(RoundPolicy& policy) {
  HierRoundPolicy* hier_policy = nullptr;
  if (sharded_) {
    hier_policy = dynamic_cast<HierRoundPolicy*>(&policy);
    if (hier_policy == nullptr) {
      throw std::invalid_argument(
          "RoundEngine: " + policy.algorithm_name() +
          " cannot run sharded (hierarchical) rounds: it does not implement "
          "HierRoundPolicy");
    }
  }
  const bool divergent = sync_every_ > 1;
  engine::RunCore core(*this, policy,
                       sharded_ ? engine::RunMode::kHier : engine::RunMode::kFlat,
                       shards_, sync_every_);

  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");
  // The afl.hier.* instruments exist only in sharded runs, so flat metrics
  // dumps carry none of them.
  obs::Histogram* merge_hist = nullptr;
  obs::Histogram* shard_updates_hist = nullptr;
  obs::Counter* syncs_counter = nullptr;
  if (sharded_) {
    obs::metrics().gauge("afl.hier.shards").set(static_cast<double>(shards_));
    obs::metrics().gauge("afl.hier.sync_every").set(static_cast<double>(sync_every_));
    merge_hist = &obs::metrics().histogram("afl.hier.merge.seconds");
    shard_updates_hist = &obs::metrics().histogram("afl.hier.shard.round.updates");
    syncs_counter = &obs::metrics().counter("afl.hier.syncs");
  }

  const auto shard_of = [this](std::size_t client) { return client % shards_; };

  // Simulated time: with a transport configured each shard's round takes as
  // long as its slowest client's session (capped by the round deadline — the
  // server stops waiting there) on the shard's own clock. A root sync is a
  // barrier aligning every clock at the maximum, which is the run clock.
  // Lifecycle records take each dispatch's timebase from its shard's clock,
  // so phases from diverging shards land on one run-global timeline.
  std::vector<async::VirtualClock> clocks(shards_);

  // Snapshot/resume (docs/POPULATION.md): the engine's section is the run
  // clock, the lifecycle id counter and, sharded, the shard clocks, so round
  // k+1 starts bit-identically to the uninterrupted run. Snapshots are cut
  // only at root-sync boundaries (every round of a flat run): edge windows
  // are empty there and every divergent edge model equals the synced global.
  core.head.write = [&](SnapshotWriter& w) {
    w.f64(core.sim_time);
    w.u64(core.lifecycle.last_id());
    if (!sharded_) return;
    w.u64(clocks.size());
    for (const async::VirtualClock& clock : clocks) w.f64(clock.now());
  };
  core.head.read = [&](SnapshotReader& r) {
    core.sim_time = r.f64();
    core.lifecycle.set_last_id(r.u64());
    if (!sharded_) return clocks[0].restore(core.sim_time);
    const std::uint64_t n_edges = r.u64();
    if (n_edges != shards_) {
      throw std::runtime_error(
          "snapshot: shard count mismatch (file has " + std::to_string(n_edges) +
          " edges, run has " + std::to_string(shards_) + ")");
    }
    for (async::VirtualClock& clock : clocks) clock.restore(r.f64());
  };
  const std::size_t start_round = core.resume() + 1;

  // Edges fold the updates of a sharded run; a flat run commits to the
  // policy instead. Built from the (possibly resumed) global. Elements no
  // shard covered during a divergent sync window fall through to the global
  // of the last root sync.
  std::vector<EdgeAggregator> edges;
  ParamSet synced_global;
  // Every edge folds into this one root, which keeps its storage for the
  // whole run and is cleared in place after each sync.
  std::optional<ShardAggregator> root;
  if (sharded_) {
    root.emplace(hier_policy->hier_global());
    edges.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      edges.emplace_back(hier_policy->hier_global(), divergent);
    }
    if (divergent) synced_global = hier_policy->hier_global();
  }

  for (std::size_t round = start_round; round <= config_.rounds; ++round) {
    core.open_window(round);
    policy.begin_round(round, core.rng);

    // Phase 1 (sequential planning): draw / adapt / admit in slot order
    // (engine/dispatch.hpp), booking failures at once. The round RNG is drawn
    // in the same order whatever the shard count, so the cohort and every
    // failure do not depend on the sharding; transport draws use per-(round,
    // client) Sessions. Time base: the shard's clock. Lifecycle ids are
    // sequential (thread- and shard-count invariant); version is round - 1.
    std::vector<engine::Dispatch> work;
    work.reserve(config_.clients_per_round);
    // Per shard, the longest session lost on the downlink: it trains nothing
    // but still advances the shard's clock.
    std::vector<double> lost_downlink(shards_, 0.0);
    for (std::size_t slot = 0; slot < config_.clients_per_round; ++slot) {
      engine::Dispatch d;
      d.slot.round = round;
      d.slot.slot = slot;
      {
        AFL_PROF_SPAN("engine.select");
        if (!core.dispatcher.draw(d.slot, core.rng)) break;  // no client available this round
      }
      {
        AFL_PROF_SPAN("engine.adapt");
        policy.adapt(d.slot);
      }
      const std::size_t shard = shard_of(d.slot.client);
      d.shard = sharded_ ? static_cast<int>(shard) : -1;
      // A divergent run ships, and trains on, the owning shard's model.
      if (divergent) d.slot.source = &edges[shard].model();
      // Ids are drawn only while tracing lifecycles: the counter is snapshot
      // state, so time-less runs keep it at 0.
      d.id = core.lifecycle.active() ? core.lifecycle.next_id() : 0;
      d.version = round - 1;
      d.base = clocks[shard].now();
      const engine::Admission admission = core.dispatcher.admit(d, core.rng, round);
      if (!admission.failure) {
        work.push_back(std::move(d));
        continue;
      }
      if (*admission.failure == DispatchFailure::kLostDownlink) {
        lost_downlink[shard] = std::max(lost_downlink[shard], d.sess.elapsed_seconds());
      }
      core.dispatcher.fail(d, *admission.failure, admission.at, /*virtual_time=*/-1.0);
    }

    // Phase 2 (parallel execution): per-slot work runs on the pool with a
    // RNG derived WITHOUT the shard word, so neither the thread count nor the
    // shard count can perturb training randomness.
    std::vector<engine::Dispatch*> wave;
    for (engine::Dispatch& d : work) wave.push_back(&d);
    const double exec_wall = core.train(wave, "engine.train", "engine.client_train");

    // Phase 3 (sequential commit): shard-major, slot order within each shard
    // (plain slot order in a flat run): uploads, comm accounting, telemetry,
    // traces, then the update goes to its edge or to policy.commit().
    // Residual rows are per-client and clients map to exactly one shard, so
    // the shard-major order cannot perturb the compressor's final state.
    const double deadline = transport_.config().round_deadline_s;
    double round_elapsed_max = 0.0;  // slowest client across all shards
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      async::VirtualClock& clock = clocks[shard];
      const double shard_base = clock.now();  // round start of this shard
      const int tag = sharded_ ? static_cast<int>(shard) : -1;
      double shard_elapsed = lost_downlink[shard];
      for (engine::Dispatch& d : work) {
        const ClientSlot& s = d.slot;
        if (shard_of(s.client) != shard) continue;
        std::size_t bytes_up = 0;
        if (transport_.enabled()) {
          // Uplink on the session clock that holds the downlink and compute.
          // Updates lost after all retries, or delivered past the round
          // deadline (stragglers), are never aggregated.
          const engine::Uplink up =
              core.dispatcher.send_update(d, /*reupload_backoff_s=*/0.0);
          const double uplink_end = shard_base + d.sess.elapsed_seconds();
          core.lifecycle.phase(d.id, engine::kPhaseUplink, shard_base + up.start_elapsed,
                               uplink_end, up.attempts, up.backoff_seconds, up.bytes);
          shard_elapsed = std::max(shard_elapsed, d.sess.elapsed_seconds());
          bytes_up = up.bytes;
          if (!up.delivered || (deadline > 0.0 && d.sess.elapsed_seconds() > deadline)) {
            core.dispatcher.fail(
                d, up.delivered ? DispatchFailure::kDeadline : DispatchFailure::kLostUplink,
                uplink_end, /*virtual_time=*/-1.0);
            continue;
          }
        }
        core.dispatcher.arrive(d, shard_base + d.sess.elapsed_seconds(), [&](obs::TraceEvent& ev) {
          ev.field("train_ms", d.outcome.stats.seconds * 1e3).field("dur_ms", d.exec_s * 1e3);
          if (sharded_ && transport_.enabled()) {
            ev.field("bytes_down", static_cast<std::uint64_t>(d.down_bytes))
                .field("bytes_up", static_cast<std::uint64_t>(bytes_up));
          }
        });
        queue_hist.record(d.queue_s);
        train_hist.record(d.exec_s);
        if (sharded_) {
          edges[shard].add(ClientUpdate{std::move(d.outcome.params), d.outcome.samples},
                           *root);
        } else {
          policy.commit(s, std::move(d.outcome));
        }
      }
      round_elapsed_max = std::max(round_elapsed_max, shard_elapsed);
      if (transport_.enabled()) {
        // The shard's round ends at its own slowest client (deadline-capped):
        // shards progress independently between syncs. That round barrier is
        // the commit instant of every buffered update of the shard:
        // buffer_wait runs from each arrival to here.
        clock.advance_to(clock.now() + (deadline > 0.0
                                            ? std::min(deadline, shard_elapsed)
                                            : shard_elapsed));
        core.lifecycle.commit_window(clock.now(), tag, static_cast<long long>(round));
      }
    }
    if (!work.empty() && exec_wall > 0.0) {
      double busy = 0.0;
      for (const engine::Dispatch& d : work) busy += d.exec_s;
      obs::metrics()
          .gauge("afl.engine.pool.utilization")
          .set(busy / (exec_wall * static_cast<double>(core.pool.size())));
    }

    // Phase 4 (sequential): aggregate — the edge folds plus the root merge
    // when a sync is due — then the window close.
    const bool sync_round = round % sync_every_ == 0 || round == config_.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      if (!sharded_) {
        policy.aggregate(round);
      } else {
        for (EdgeAggregator& edge : edges) {
          shard_updates_hist->record(static_cast<double>(edge.end_round(*root)));
        }
        if (sync_round) {
          // The root holds every shard's updates since the last sync, folded
          // by exact integer addition, so it does not depend on the shard
          // count or order; it finalizes against the window's base.
          Stopwatch merge_watch;
          const ParamSet& base = divergent ? synced_global : hier_policy->hier_global();
          hier_policy->hier_set_global(finalize_partial(root->partial(), base));
          root->reset();
          if (divergent) {
            synced_global = hier_policy->hier_global();
            for (EdgeAggregator& edge : edges) edge.set_model(synced_global);
          }
          syncs_counter->inc();
          merge_hist->record(merge_watch.seconds());
          if (transport_.enabled()) {
            // A root sync is a barrier: every shard clock aligns at the
            // maximum, and the fast shards' idle time is traced.
            double vmax = 0.0;
            for (const async::VirtualClock& clock : clocks) {
              vmax = std::max(vmax, clock.now());
            }
            for (std::size_t s = 0; s < shards_; ++s) {
              const double before = clocks[s].now();
              if (before < vmax) {
                core.lifecycle.root_wait(round, static_cast<int>(s), before, vmax);
              }
              clocks[s].advance_to(vmax);
            }
            core.lifecycle.root_merge(round, vmax);
          }
        }
      }
      core.telemetry->add_aggregate_seconds(agg_watch.seconds());
    }

    double round_sim = -1.0;
    double now = -1.0;  // the run clock; stays negative while nothing models time
    if (transport_.enabled()) {
      round_sim = deadline > 0.0 ? std::min(deadline, round_elapsed_max) : round_elapsed_max;
      now = core.sim_time;
      for (const async::VirtualClock& clock : clocks) now = std::max(now, clock.now());
    }
    // Only sync rounds (every round of a flat run) evaluate, snapshot and
    // stop: between syncs the root global is stale, and the edge windows
    // hold un-merged coverage mass that the format deliberately does not
    // carry.
    if (core.close_window(round, sync_round, round_sim, now)) return core.finish(round);
  }
  return core.end();
}

}  // namespace afl
