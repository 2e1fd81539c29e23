// Unit and integration tests for the sparsifying uplink pipeline
// (src/compress/, docs/COMPRESSION.md): error-feedback mass conservation,
// reclaim, churn interaction, residual snapshot canonicity, and thread-count
// determinism of full engine runs with compression on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/residual.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
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
      const float residual = row->at(i);
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
      const float residual = row->at(i);
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

/// Saves `c`'s residuals to `path` and returns the file's bytes.
std::string snapshot_bytes(Compressor& c, const std::string& path,
                           const std::vector<ParamSet*>& globals) {
  {
    SnapshotStream s(path, SnapshotStream::Mode::kSave);
    c.snapshot(s, globals);
    s.finish();
  }
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

/// Resumes `c`'s residuals from `path`, which must hold nothing else.
void resume(Compressor& c, const std::string& path, const std::vector<ParamSet*>& globals) {
  SnapshotStream s(path, SnapshotStream::Mode::kResume);
  c.snapshot(s, globals);
  s.finish();
}

TEST(Compressor, SnapshotRoundTripsAndIsCanonical) {
  Compressor c(sparse_transport(), CompressConfig{});
  ParamSet reference = random_params(13);
  for (std::size_t client : {std::size_t{5}, std::size_t{1}, std::size_t{9}}) {
    ParamSet p = random_params(20 + client);
    c.encode_update(client, p, reference);
  }
  const std::string path_a = ::testing::TempDir() + "compress_a.snap";
  const std::string path_b = ::testing::TempDir() + "compress_b.snap";
  // Canonical: two snapshots of identical logical state are byte-identical.
  const std::string bytes_a = snapshot_bytes(c, path_a, {&reference});
  EXPECT_EQ(bytes_a, snapshot_bytes(c, path_b, {&reference}));
  ASSERT_FALSE(bytes_a.empty());

  Compressor restored(sparse_transport(), CompressConfig{});
  resume(restored, path_a, {&reference});
  EXPECT_EQ(restored.residuals().num_clients(), c.residuals().num_clients());
  EXPECT_EQ(restored.residuals().num_coords(), c.residuals().num_coords());
  for (const auto& [name, t] : reference) {
    for (std::size_t client : {std::size_t{1}, std::size_t{5}, std::size_t{9}}) {
      const compress::ResidualEntry* orig = c.residuals().find(client, name);
      const compress::ResidualEntry* back = restored.residuals().find(client, name);
      ASSERT_NE(orig, nullptr);
      ASSERT_NE(back, nullptr);
      EXPECT_EQ(orig->dims, back->dims);
      EXPECT_EQ(orig->nonzero, back->nonzero);
      EXPECT_EQ(orig->values, back->values);
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

// Writes a residual section holding one row of client 3, tensor `name`, as a
// saved snapshot would (so its CRC is valid), with the given shape, entry
// count and entry indices.
std::string one_row_snapshot(const std::string& name, const std::vector<std::uint64_t>& dims,
                             std::uint64_t nnz, const std::vector<std::uint64_t>& indices) {
  const std::string path = ::testing::TempDir() + "compress_one_row.snap";
  SnapshotStream s(path, SnapshotStream::Mode::kSave);
  std::uint64_t clients = 1, client = 3, tensors = 1, rank = dims.size();
  s.u64(clients);
  s.u64(client);
  s.u64(tensors);
  std::string tensor = name;
  s.str(tensor);
  s.u64(rank);
  for (std::uint64_t d : dims) s.u64(d);
  s.u64(nnz);
  for (std::uint64_t idx : indices) {
    double v = 0.5;
    s.u64(idx);
    s.f64(v);
  }
  s.finish();
  return path;
}

struct RowCase {
  const char* what;
  const char* name;
  std::vector<std::uint64_t> dims;
  std::uint64_t nnz;
  std::vector<std::uint64_t> indices;
  const char* value;  // the offending value the message must name
};

// Resumes each case's one-row snapshot over globals holding "fc.w" {10, 6}
// and expects a refusal naming the client, the tensor and the value.
void expect_rows_rejected(const std::vector<RowCase>& cases) {
  ParamSet global = random_params(14);
  for (const RowCase& tc : cases) {
    SCOPED_TRACE(tc.what);
    const std::string path = one_row_snapshot(tc.name, tc.dims, tc.nnz, tc.indices);
    Compressor restored(sparse_transport(), CompressConfig{});
    try {
      resume(restored, path, {&global});
      ADD_FAILURE() << "restore accepted the row";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("client 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("\"") + tc.name + "\""), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string(" ") + tc.value), std::string::npos) << msg;
    }
    std::remove(path.c_str());
  }
}

TEST(ResidualStore, RestoreRejectsRowsItCannotHold) {
  // A restored row is indexed by the next encode_update, so restore must
  // refuse any row whose shape, count or indices it cannot hold.
  expect_rows_rejected({
      {"index past the row", "fc.w", {2, 2}, 1, {1000000}, "1000000"},
      {"repeated index", "fc.w", {2, 2}, 2, {1, 1}, "1"},
      {"descending index", "fc.w", {2, 2}, 2, {3, 2}, "2"},
      {"more entries than elements", "fc.w", {2, 2}, 5, {0, 1, 2, 3, 4}, "5"},
      {"rank above the global's", "fc.w", {1, 1, 1, 1, 1, 1, 1, 1, 1}, 0, {}, "9"},
      {"product that wraps a u64", "fc.w", {4294967296, 4294967296}, 0, {}, "4294967296"},
  });
}

TEST(ResidualStore, RestoreRejectsRowsNoGlobalCanHold) {
  // A row's dense storage is sized from its shape, not from its entries, so
  // only the globals bound it: a row of a tensor no global holds, or wider
  // than that tensor, is refused before it is allocated.
  expect_rows_rejected({
      {"tensor no global holds", "head.w", {2, 2}, 1, {0}, "global"},
      {"rank other than the global's", "fc.w", {60}, 1, {0}, "1"},
      {"dimension past the global's", "fc.w", {1, std::uint64_t{1} << 24}, 1, {0},
       "16777216"},
  });
}

// Two geometries per tensor name, with values from a small alphabet so exact
// zeros, -0.0 deltas and ties are common.
ParamSet alphabet_params(Rng& rng, bool large) {
  const auto fill = [&rng](Shape shape) {
    Tensor t(std::move(shape));
    const float alphabet[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f};
    for (std::size_t i = 0; i < t.numel(); ++i) {
      t[i] = rng.uniform() < 0.5 ? alphabet[rng.uniform_index(std::size(alphabet))]
                                 : static_cast<float>(rng.normal());
    }
    return t;
  };
  ParamSet ps;
  ps.emplace("conv.w", fill(large ? Shape{8, 3, 3} : Shape{4, 3, 3}));
  ps.emplace("fc.w", fill(large ? Shape{10, 12} : Shape{10, 6}));
  return ps;
}

class ResidualBookkeeping : public ::testing::TestWithParam<int> {};

// A seeded mix of encodes, reclaims (including one that cancels a row to
// zero), shape changes and departures over five clients. After every step
// each row's running count equals a recount of its nonzero slots, and
// num_coords() their sum; a snapshot restores to a store whose snapshot has
// the same bytes.
TEST_P(ResidualBookkeeping, CountsAndSnapshotsTrackEveryStep) {
  constexpr std::size_t kClients = 5;
  const char* const kNames[] = {"conv.w", "fc.w"};
  Rng rng(0xB00Cu + static_cast<std::uint64_t>(GetParam()));
  CompressConfig cfg;
  cfg.residual_decay = GetParam() % 2 == 0 ? 0.75 : 1.0;
  cfg.drop_departed = GetParam() < 2;
  Compressor c(sparse_transport(), cfg);
  Rng shape_rng(1);
  ParamSet global = alphabet_params(shape_rng, /*large=*/true);  // bounds every row
  std::vector<ParamSet> shipped(kClients);
  // ctest runs each seed as its own process, so each gets its own files.
  const std::string stem =
      ::testing::TempDir() + "bookkeeping_" + std::to_string(GetParam());
  const std::string path_a = stem + "_a.snap";
  const std::string path_b = stem + "_b.snap";
  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::size_t client = rng.uniform_index(kClients);
    switch (rng.uniform_index(5)) {
      case 0:
      case 1: {  // an upload, on either geometry
        const bool large = rng.uniform() < 0.3;
        const ParamSet reference = alphabet_params(rng, large);
        ParamSet update = alphabet_params(rng, large);
        c.encode_update(client, update, reference);
        shipped[client] = std::move(update);
        break;
      }
      case 2:  // the last upload was lost (its shape may be stale by now)
        if (!shipped[client].empty()) c.reclaim(client, shipped[client]);
        break;
      case 3: {  // a reclaim that cancels every stored slot to exactly zero
        ParamSet negated;
        for (const char* name : kNames) {
          const compress::ResidualEntry* row = c.residuals().find(client, name);
          if (row == nullptr || row->values.empty()) continue;
          Tensor t(row->dims);
          for (std::size_t i = 0; i < t.numel(); ++i) t[i] = -row->values[i];
          negated.emplace(name, std::move(t));
        }
        c.reclaim(client, negated);
        for (const auto& [name, t] : negated) {
          EXPECT_EQ(c.residuals().find(client, name)->nonzero, 0u) << name;
        }
        break;
      }
      default:
        c.on_departed(client);
        break;
    }

    std::size_t total = 0;
    for (std::size_t id = 0; id < kClients; ++id) {
      for (const char* name : kNames) {
        const compress::ResidualEntry* row = c.residuals().find(id, name);
        if (row == nullptr) continue;
        std::size_t nonzero = 0;
        for (const float v : row->values) nonzero += v != 0.0f;
        EXPECT_EQ(row->nonzero, nonzero) << "client " << id << " " << name;
        total += nonzero;
      }
    }
    EXPECT_EQ(c.residuals().num_coords(), total);

    const std::string bytes = snapshot_bytes(c, path_a, {&global});
    Compressor restored(sparse_transport(), cfg);
    resume(restored, path_a, {&global});
    EXPECT_EQ(restored.residuals().num_coords(), total);
    EXPECT_EQ(snapshot_bytes(restored, path_b, {&global}), bytes);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidualBookkeeping, ::testing::Range(0, 4));

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
