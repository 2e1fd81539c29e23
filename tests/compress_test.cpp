// Unit and integration tests for the sparsifying uplink pipeline
// (src/compress/, docs/COMPRESSION.md): error-feedback mass conservation,
// reclaim, churn interaction, residual snapshot canonicity, and thread-count
// determinism of full engine runs with compression on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/residual.hpp"
#include "core/experiment.hpp"
#include "core/rolling_fl.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "nn/checkpoint.hpp"
#include "pop/config.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

using compress::CompressConfig;
using compress::Compressor;
using compress::ResidualStore;

net::Transport sparse_transport() {
  net::NetConfig cfg;
  cfg.enabled = true;
  cfg.codec = net::Codec::kTopK10;  // ctor splits: uplink topk10, downlink fp32
  return net::Transport(cfg, /*run_seed=*/1);
}

ParamSet random_params(std::uint64_t seed) {
  Rng rng(seed);
  ParamSet ps;
  ps.emplace("conv.w", Tensor::randn({4, 3, 3}, rng));
  ps.emplace("fc.w", Tensor::randn({10, 6}, rng));
  return ps;
}

TEST(Compressor, DisabledForDenseTransports) {
  EXPECT_FALSE(Compressor().enabled());
  net::NetConfig dense;
  dense.enabled = true;
  dense.codec = net::Codec::kFp16;
  EXPECT_FALSE(Compressor(net::Transport(dense, 1), CompressConfig{}).enabled());
  EXPECT_TRUE(Compressor(sparse_transport(), CompressConfig{}).enabled());
}

TEST(Compressor, TransportCtorSplitsSparseSharedCodec) {
  // AFL_NET_CODEC=topk* means "sparse uplink, dense downlink": the transport
  // normalizes a sparse shared codec so dispatch frames stay fp32.
  const net::Transport t = sparse_transport();
  EXPECT_EQ(t.codec(), net::Codec::kFp32);
  EXPECT_EQ(t.uplink_codec(), net::Codec::kTopK10);
}

TEST(Compressor, EncodeConservesMassIntoResiduals) {
  Compressor c(sparse_transport(), CompressConfig{});
  ASSERT_TRUE(c.enabled());
  const ParamSet reference = random_params(1);
  const ParamSet trained = random_params(2);

  ParamSet masked = trained;
  c.encode_update(7, masked, reference);

  for (const auto& [name, ref_t] : reference) {
    const Tensor& train_t = trained.at(name);
    const Tensor& mask_t = masked.at(name);
    const std::size_t k = net::codec_kept_coords(ref_t.numel(), c.codec());
    const compress::ResidualEntry* row = c.residuals().find(7, name);
    ASSERT_NE(row, nullptr) << name;
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < ref_t.numel(); ++i) {
      const float delta = train_t.data()[i] - ref_t.data()[i];
      const auto it = row->coords.find(static_cast<std::uint32_t>(i));
      const float residual = it == row->coords.end() ? 0.0f : it->second;
      // Every coordinate's mass lands either on the wire or in the residual,
      // bit-exactly: masked + residual == trained - reference.
      EXPECT_EQ(mask_t.data()[i] + residual, delta) << name << "[" << i << "]";
      EXPECT_TRUE(mask_t.data()[i] == 0.0f || residual == 0.0f);
      if (mask_t.data()[i] != 0.0f) ++nonzero;
    }
    EXPECT_LE(nonzero, k) << name;
  }
}

TEST(Compressor, DecodeRestoresReferenceFrame) {
  Compressor c(sparse_transport(), CompressConfig{});
  const ParamSet reference = random_params(3);
  const ParamSet trained = random_params(4);
  ParamSet masked = trained;
  c.encode_update(0, masked, reference);
  ParamSet decoded = masked;  // fp32 wire values are bit-exact
  c.decode_update(decoded, reference);
  for (const auto& [name, dec_t] : decoded) {
    const Tensor& ref_t = reference.at(name);
    const Tensor& mask_t = masked.at(name);
    for (std::size_t i = 0; i < dec_t.numel(); ++i) {
      EXPECT_EQ(dec_t.data()[i], mask_t.data()[i] + ref_t.data()[i]);
    }
  }
}

TEST(Compressor, ResidualFoldsIntoNextUpdate) {
  CompressConfig cfg;
  cfg.residual_decay = 1.0;
  Compressor c(sparse_transport(), cfg);
  const ParamSet reference = random_params(5);
  const ParamSet trained = random_params(6);
  ParamSet first = trained;
  c.encode_update(3, first, reference);
  const std::size_t coords_after_first = c.residuals().num_coords();
  ASSERT_GT(coords_after_first, 0u);

  // A second, zero-delta update: everything it can ship is residual mass, so
  // the store must shrink by exactly the coordinates that went on the wire.
  ParamSet second = reference;
  c.encode_update(3, second, reference);
  std::size_t shipped = 0;
  for (const auto& [name, t] : second) {
    for (std::size_t i = 0; i < t.numel(); ++i) shipped += t.data()[i] != 0.0f;
  }
  EXPECT_GT(shipped, 0u);
  EXPECT_EQ(c.residuals().num_coords(), coords_after_first - shipped);
}

TEST(Compressor, ReclaimReturnsShippedMass) {
  Compressor c(sparse_transport(), CompressConfig{});
  const ParamSet reference = random_params(7);
  const ParamSet trained = random_params(8);
  ParamSet masked = trained;
  c.encode_update(2, masked, reference);

  // A lost uplink reclaims the masked delta: afterwards the residual holds
  // the complete delta, so nothing was lost to the drop.
  c.reclaim(2, masked);
  for (const auto& [name, ref_t] : reference) {
    const compress::ResidualEntry* row = c.residuals().find(2, name);
    ASSERT_NE(row, nullptr);
    for (std::size_t i = 0; i < ref_t.numel(); ++i) {
      const float delta = trained.at(name).data()[i] - ref_t.data()[i];
      const auto it = row->coords.find(static_cast<std::uint32_t>(i));
      const float residual = it == row->coords.end() ? 0.0f : it->second;
      EXPECT_EQ(residual, delta) << name << "[" << i << "]";
    }
  }
}

TEST(Compressor, DepartedClientDropsResiduals) {
  Compressor c(sparse_transport(), CompressConfig{});
  const ParamSet reference = random_params(9);
  ParamSet a = random_params(10), b = random_params(11);
  c.encode_update(0, a, reference);
  c.encode_update(1, b, reference);
  EXPECT_EQ(c.residuals().num_clients(), 2u);
  c.on_departed(0);
  EXPECT_EQ(c.residuals().num_clients(), 1u);
  EXPECT_EQ(c.residuals().find(0, "conv.w"), nullptr);
  EXPECT_NE(c.residuals().find(1, "conv.w"), nullptr);

  // With drop_departed off the residual survives a departure.
  CompressConfig keep;
  keep.drop_departed = false;
  Compressor c2(sparse_transport(), keep);
  ParamSet d = random_params(12);
  c2.encode_update(0, d, reference);
  c2.on_departed(0);
  EXPECT_EQ(c2.residuals().num_clients(), 1u);
}

TEST(Compressor, SnapshotRoundTripsAndIsCanonical) {
  Compressor c(sparse_transport(), CompressConfig{});
  const ParamSet reference = random_params(13);
  for (std::size_t client : {std::size_t{5}, std::size_t{1}, std::size_t{9}}) {
    ParamSet p = random_params(20 + client);
    c.encode_update(client, p, reference);
  }
  const std::string path_a = ::testing::TempDir() + "compress_a.snap";
  const std::string path_b = ::testing::TempDir() + "compress_b.snap";
  {
    SnapshotWriter w(path_a);
    c.snapshot(w);
    w.finish();
  }
  {
    SnapshotWriter w(path_b);
    c.snapshot(w);
    w.finish();
  }
  // Canonical: two snapshots of identical logical state are byte-identical.
  std::ifstream fa(path_a, std::ios::binary), fb(path_b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  ASSERT_FALSE(bytes_a.empty());

  Compressor restored(sparse_transport(), CompressConfig{});
  {
    SnapshotReader r(path_a);
    restored.restore(r);
    r.expect_end();
  }
  EXPECT_EQ(restored.residuals().num_clients(), c.residuals().num_clients());
  EXPECT_EQ(restored.residuals().num_coords(), c.residuals().num_coords());
  for (const auto& [name, t] : reference) {
    for (std::size_t client : {std::size_t{1}, std::size_t{5}, std::size_t{9}}) {
      const compress::ResidualEntry* orig = c.residuals().find(client, name);
      const compress::ResidualEntry* back = restored.residuals().find(client, name);
      ASSERT_NE(orig, nullptr);
      ASSERT_NE(back, nullptr);
      EXPECT_EQ(orig->dims, back->dims);
      ASSERT_EQ(orig->coords.size(), back->coords.size());
      for (const auto& [idx, v] : orig->coords) {
        const auto it = back->coords.find(idx);
        ASSERT_NE(it, back->coords.end());
        EXPECT_EQ(it->second, v);
      }
    }
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ResidualStore, ShapeChangeResetsRow) {
  // Flat indices are meaningless across geometries: a client whose submodel
  // shape changed gets a fresh row (the one documented mass-loss case).
  Compressor c(sparse_transport(), CompressConfig{});
  Rng rng(30);
  ParamSet ref_small, ref_large;
  ref_small.emplace("w", Tensor::randn({4, 4}, rng));
  ref_large.emplace("w", Tensor::randn({8, 8}, rng));
  ParamSet upd = ref_small;
  upd.at("w").data()[3] += 1.0f;
  c.encode_update(0, upd, ref_small);
  const std::vector<std::size_t> small_dims{4, 4};
  ASSERT_NE(c.residuals().find(0, "w"), nullptr);
  EXPECT_EQ(c.residuals().find(0, "w")->dims, small_dims);

  ParamSet upd2 = ref_large;
  upd2.at("w").data()[7] += 1.0f;
  c.encode_update(0, upd2, ref_large);
  const std::vector<std::size_t> large_dims{8, 8};
  EXPECT_EQ(c.residuals().find(0, "w")->dims, large_dims);
}

// ---------------------------------------------------------------------------
// Full-engine determinism with compression on (the contract every other
// engine feature honors: bit-identical RunResult at any AFL_THREADS).
// ---------------------------------------------------------------------------

ExperimentEnv compress_env() {
  ExperimentConfig cfg;
  cfg.num_clients = 8;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 10;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 4;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  ExperimentEnv env = make_env(cfg);
  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kFp32;
  net.uplink_codec = net::Codec::kTopK10;
  net.channel.bandwidth_bytes_per_s = 512 * 1024.0;
  net.channel.latency_s = 0.01;
  net.compute_s_per_kparam = 0.05;
  env.run.net = net;
  env.run.pop = pop::PopConfig{};  // insulate from AFL_POP_* in the env
  return env;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].full_acc, b.curve[i].full_acc);
    EXPECT_EQ(a.curve[i].avg_acc, b.curve[i].avg_acc);
  }
  EXPECT_EQ(a.final_full_acc, b.final_full_acc);
  EXPECT_EQ(a.final_avg_acc, b.final_avg_acc);
  EXPECT_EQ(a.comm.bytes_sent(), b.comm.bytes_sent());
  EXPECT_EQ(a.comm.bytes_returned(), b.comm.bytes_returned());
  EXPECT_EQ(a.failed_trainings, b.failed_trainings);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(CompressDeterminism, SyncEngineThreadCountInvariant) {
  ExperimentEnv env = compress_env();
  env.run.threads = std::size_t{1};
  const RunResult t1 = run_algorithm(Algorithm::kAdaptiveFl, env);
  env.run.threads = std::size_t{8};
  const RunResult t8 = run_algorithm(Algorithm::kAdaptiveFl, env);
  expect_same_result(t1, t8);
  // Sparse uplink actually engaged: return bytes are a small fraction of the
  // dense dispatch bytes for the same traffic.
  EXPECT_GT(t1.comm.bytes_returned(), 0u);
  EXPECT_LT(t1.comm.bytes_returned(), t1.comm.bytes_sent() / 2);
}

TEST(CompressDeterminism, AsyncEngineThreadCountInvariant) {
  ExperimentEnv env = compress_env();
  async::AsyncConfig acfg;
  acfg.enabled = true;
  acfg.buffer_size = 3;
  acfg.concurrency = 5;
  acfg.staleness_alpha = 0.3;
  env.run.async = acfg;
  env.run.net->round_deadline_s = 0.0;
  env.run.threads = std::size_t{1};
  const RunResult t1 = run_algorithm(Algorithm::kAdaptiveFlAsync, env);
  env.run.threads = std::size_t{8};
  const RunResult t8 = run_algorithm(Algorithm::kAdaptiveFlAsync, env);
  expect_same_result(t1, t8);
}

TEST(CompressDeterminism, HierEngineShardAndThreadInvariant) {
  ExperimentEnv env = compress_env();
  hier::HierConfig hcfg;
  hcfg.enabled = true;
  hcfg.shards = 2;
  hcfg.sync_every = 2;
  env.run.hier = hcfg;
  env.run.threads = std::size_t{1};
  const RunResult t1 = run_algorithm(Algorithm::kAdaptiveFl, env);
  env.run.threads = std::size_t{8};
  const RunResult t8 = run_algorithm(Algorithm::kAdaptiveFl, env);
  expect_same_result(t1, t8);
}

TEST(CompressDeterminism, EveryPolicyTrainsUnderSparseUplink) {
  // Each policy's update is coded against its own local_view(), the set its
  // execute() imports: fp16 downlink, top-k(10%) uplink, lossless channel.
  enum class Policy { kAllLarge, kDecoupled, kHeteroFl, kScaleFl, kFedRolex, kAdaptiveFl };
  const auto run = [](Policy policy, const ExperimentEnv& env) {
    switch (policy) {
      case Policy::kAllLarge: return run_algorithm(Algorithm::kAllLarge, env);
      case Policy::kDecoupled: return run_algorithm(Algorithm::kDecoupled, env);
      case Policy::kHeteroFl: return run_algorithm(Algorithm::kHeteroFl, env);
      case Policy::kScaleFl: return run_algorithm(Algorithm::kScaleFl, env);
      case Policy::kFedRolex:  // not in Algorithm: built directly
        return RollingFl(env.spec, env.pool_config, env.data, env.devices, env.run).run();
      case Policy::kAdaptiveFl: return run_algorithm(Algorithm::kAdaptiveFl, env);
    }
    return RunResult{};
  };
  const std::pair<Policy, const char*> policies[] = {
      {Policy::kAllLarge, "All-Large"}, {Policy::kDecoupled, "Decoupled"},
      {Policy::kHeteroFl, "HeteroFL"},  {Policy::kScaleFl, "ScaleFL"},
      {Policy::kFedRolex, "FedRolex"},  {Policy::kAdaptiveFl, "AdaptiveFL"},
  };
  for (const auto& [policy, name] : policies) {
    SCOPED_TRACE(name);
    ExperimentEnv env = compress_env();
    env.run.net->codec = net::Codec::kFp16;
    env.run.threads = std::size_t{1};
    const RunResult t1 = run(policy, env);
    env.run.threads = std::size_t{4};
    const RunResult t4 = run(policy, env);
    expect_same_result(t1, t4);
    env.run.threads = std::size_t{1};
    env.run.net->uplink_codec = std::nullopt;  // dense fp16 uplink
    const RunResult dense = run(policy, env);
    EXPECT_GT(t1.comm.bytes_returned(), 0u);
    EXPECT_LT(t1.comm.bytes_returned(), dense.comm.bytes_returned());
  }
}

}  // namespace
}  // namespace afl
