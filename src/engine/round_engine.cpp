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

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace afl {

using engine::DispatchFailure;

namespace {

/// One aggregation shard of a run; a flat run is one lockstep edge. Its
/// partition's updates fold into the run core's root aggregator: straight
/// away in lockstep mode, and through a round partial that first advances a
/// shard-local model when shard models diverge between syncs. The fold is
/// exact integer addition, so the root does not depend on how the clients
/// split across edges.
struct Edge {
  std::optional<ShardAggregator> round;  // divergent mode: this round's updates
  ParamSet model;                        // divergent mode: the shard's model
  std::size_t updates = 0;               // folded this round
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
#if defined(__GLIBC__)
  // Each client's training allocates the same column buffers, GEMM outputs
  // and activations as the last one. glibc hands them back to the OS between
  // clients, by trimming the heap top and by unmapping chunks above its
  // dynamic mmap threshold, and the next client faults them in again: the
  // `train` benchmark child took 122k minor faults at 1 thread and 116k at 2.
  // Keeping freed memory in the process (no trimming; mmap only above
  // 32 MiB, the 64-bit maximum) takes that to 4k and 6k for about 1 MiB more
  // peak RSS. Either setting alone left the 2-thread run above 120k. Both
  // are process-wide and idempotent.
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
#endif
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
  // An edge holds one model and the root folds into one global.
  if (sharded_ && policy.globals().size() != 1) {
    throw std::invalid_argument("RoundEngine: " + policy.algorithm_name() +
                                " cannot run sharded (hierarchical) rounds: it "
                                "aggregates more than one global");
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
  // only at root-sync boundaries (every round of a flat run): the run core's
  // aggregators are empty there and every divergent edge model equals the
  // synced global.
  core.head = [&](SnapshotStream& s) {
    s.f64(core.sim_time);
    std::uint64_t last_id = core.lifecycle.last_id();
    s.u64(last_id);
    core.lifecycle.set_last_id(last_id);
    // A flat run's clock is the run clock at every window close.
    if (!sharded_) return clocks[0].restore(core.sim_time);
    std::uint64_t n_edges = clocks.size();
    s.count(n_edges, sizeof(double), "shard clock");
    if (n_edges != shards_) {
      throw std::runtime_error(
          "snapshot: shard count mismatch (file has " + std::to_string(n_edges) +
          " edges, run has " + std::to_string(shards_) + ")");
    }
    for (async::VirtualClock& clock : clocks) {
      double now = clock.now();
      s.f64(now);
      clock.restore(now);
    }
  };
  const std::size_t start_round = core.resume() + 1;

  // One edge per shard. A divergent edge's model starts at the (possibly
  // resumed) global of the sharded run; elements no shard covered during a
  // divergent sync window fall through to the global of the last root sync,
  // which the policy holds until the next one.
  std::vector<Edge> edges(shards_);
  const ParamSet& global = *policy.globals().front();
  if (divergent) {
    for (Edge& edge : edges) {
      edge.round.emplace(global);
      edge.model = global;
    }
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
      d.slot.source = divergent ? &edges[shard].model : core.source_of(d.slot);
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
    // traces, then the run core folds the update (into its edge's round
    // partial between divergent syncs).
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
        Edge& edge = edges[shard];
        core.fold(d, /*weight=*/1.0, edge.round ? &*edge.round : nullptr);
        ++edge.updates;
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

    // Phase 4 (sequential): aggregate — the divergent edges advance their
    // models and merge into the root, and at a sync the root finalizes the
    // new global — then the window close.
    const bool sync_round = round % sync_every_ == 0 || round == config_.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch edge_watch;
      for (Edge& edge : edges) {
        if (edge.round && edge.updates > 0) {
          // Elements the shard's clients did not cover keep the shard's
          // previous value.
          edge.model = finalize_partial(edge.round->partial(), edge.model);
          core.root().merge(edge.round->partial());
          edge.round->reset();
        }
        const std::size_t updates = std::exchange(edge.updates, 0);
        if (sharded_) shard_updates_hist->record(static_cast<double>(updates));
      }
      core.telemetry->add_aggregate_seconds(edge_watch.seconds());
      if (sync_round) {
        // The root holds every update since the last sync, folded by exact
        // integer addition, so it does not depend on the shard count or
        // order; it finalizes against the global of the last sync.
        Stopwatch merge_watch;
        core.aggregate();
        if (divergent) {
          for (Edge& edge : edges) edge.model = global;
        }
        if (sharded_) {
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
    }

    double round_sim = -1.0;
    double now = -1.0;  // the run clock; stays negative while nothing models time
    if (transport_.enabled()) {
      round_sim = deadline > 0.0 ? std::min(deadline, round_elapsed_max) : round_elapsed_max;
      now = core.sim_time;
      for (const async::VirtualClock& clock : clocks) now = std::max(now, clock.now());
    }
    // Only sync rounds (every round of a flat run) evaluate, snapshot and
    // stop: between syncs the global is stale, and the root holds coverage
    // mass that the format deliberately does not carry.
    if (core.close_window(round, sync_round, round_sim, now)) return core.finish(round);
  }
  return core.end();
}

}  // namespace afl
