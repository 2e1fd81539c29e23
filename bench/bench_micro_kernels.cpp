// Micro-benchmarks (google-benchmark) for the computational kernels under
// the FL simulation: GEMM variants, im2col, conv forward/backward, pruning
// and heterogeneous aggregation throughput. Not part of the paper — these
// document the substrate's performance envelope.
//
// The profiler is armed by default here, so the run ends with the span table
// on stderr (tensor.*, net.*, prune.*, fl.*) and --out writes one snapshot
// section per span; AFL_PROFILE=0 restores the production no-op path for
// overhead measurements.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "arch/zoo.hpp"
#include "fl/aggregate.hpp"
#include "net/codec.hpp"
#include "nn/conv2d.hpp"
#include "obs/prof/bench_report.hpp"
#include "obs/prof/prof.hpp"
#include "prune/model_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace {

using namespace afl;

using GemmFn = decltype(&gemm);

// Args are {m, k, n} of C[m x n] = A * B; the variants differ only in which
// operand is stored transposed, so the buffers are the same sizes.
void run_gemm(benchmark::State& state, GemmFn kernel) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kernel(a.data(), b.data(), c.data(), m, k, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * m * k * n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// AdaptiveFL's width-pruned pool entries train MiniVGG's conv layers at 13,
// 21, 26 and 42 output channels, at batch 25 (training) and 16 (evaluation
// chunks), on 6 x 6 and 3 x 3 planes: every one of these shapes has a partial
// row tile (m mod 4 != 0) or a partial column tile (n mod 32 != 0), the
// edges the whole-tile shapes above never reach.
void pruned_forward(benchmark::internal::Benchmark* b) {
  for (long batch : {25, 16}) {
    b->Args({13, 144, batch * 36})->Args({21, 189, batch * 36});
    b->Args({26, 234, batch * 9})->Args({42, 378, batch * 9});
  }
}
void pruned_input_grad(benchmark::internal::Benchmark* b) {
  for (long batch : {25, 16}) {
    b->Args({144, 13, batch * 36})->Args({189, 21, batch * 36});
    b->Args({234, 26, batch * 9})->Args({378, 42, batch * 9});
  }
}
void pruned_weight_grad(benchmark::internal::Benchmark* b) {
  for (long batch : {25, 16}) {
    b->Args({13, batch * 36, 144})->Args({21, batch * 36, 189});
    b->Args({26, batch * 9, 234})->Args({42, batch * 9, 378});
  }
}

void BM_Gemm(benchmark::State& state) { run_gemm(state, gemm); }
BENCHMARK(BM_Gemm)
    ->Args({16, 144, 2880})
    ->Args({64, 576, 720})
    ->Args({64, 256, 64})
    ->Apply(pruned_forward);

// MiniVGG's conv backward on 12x12 inputs at batch 25, second and last conv:
// gemm_at is grad_cols[CKK, B*S] = W^T * gout, gemm_bt is gW[OC, CKK] =
// gout * cols^T.
void BM_GemmAt(benchmark::State& state) { run_gemm(state, gemm_at); }
BENCHMARK(BM_GemmAt)->Args({144, 16, 3600})->Args({576, 64, 225})->Apply(pruned_input_grad);

void BM_GemmBt(benchmark::State& state) { run_gemm(state, gemm_bt); }
BENCHMARK(BM_GemmBt)->Args({16, 3600, 144})->Args({64, 225, 576})->Apply(pruned_weight_grad);

void BM_Im2Col(benchmark::State& state) {
  const ConvGeom g{static_cast<std::size_t>(state.range(0)), 12, 12, 3, 1, 1};
  Rng rng(2);
  std::vector<float> img(g.channels * g.height * g.width);
  for (auto& v : img) v = static_cast<float>(rng.normal());
  std::vector<float> cols(g.col_rows() * g.col_cols());
  for (auto _ : state) {
    im2col(img.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(3)->Arg(16)->Arg(64);

// Args are {channels, plane}: the input gradient of a pruned layer's conv,
// one sample (the 3 x 3 'same' geometry of every MiniVGG conv).
void BM_Col2Im(benchmark::State& state) {
  const std::size_t plane = static_cast<std::size_t>(state.range(1));
  const ConvGeom g{static_cast<std::size_t>(state.range(0)), plane, plane, 3, 1, 1};
  Rng rng(12);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  for (auto& v : cols) v = static_cast<float>(rng.normal());
  std::vector<float> img(g.channels * g.height * g.width);
  for (auto _ : state) {
    col2im(cols.data(), g, img.data());
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Col2Im)->Args({16, 12})->Args({21, 6})->Args({42, 3});

void BM_ConvForward(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Conv2D conv(16, 32, 3, 1, 1);
  Rng rng(3);
  Tensor x = Tensor::randn({batch, 16, 12, 12}, rng);
  for (auto _ : state) {
    Tensor out = conv.forward(x, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * batch));
}
BENCHMARK(BM_ConvForward)->Arg(1)->Arg(20)->Arg(64);

void BM_ConvTrainStep(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Conv2D conv(16, 32, 3, 1, 1);
  Rng rng(4);
  Tensor x = Tensor::randn({batch, 16, 12, 12}, rng);
  for (auto _ : state) {
    Tensor out = conv.forward(x, true);
    Tensor gin = conv.backward(out);
    benchmark::DoNotOptimize(gin.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * batch));
}
BENCHMARK(BM_ConvTrainStep)->Arg(20);

void BM_PoolSplit(benchmark::State& state) {
  ArchSpec spec = mini_vgg(10, 3, 12);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));
  Rng rng(5);
  Model full = build_full_model(spec, &rng);
  ParamSet global = full.export_params();
  const std::size_t entry = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ParamSet sub = pool.split(global, entry);
    benchmark::DoNotOptimize(&sub);
  }
}
BENCHMARK(BM_PoolSplit)->Arg(0)->Arg(3)->Arg(6);

void BM_HeteroAggregate(benchmark::State& state) {
  ArchSpec spec = mini_vgg(10, 3, 12);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));
  Rng rng(6);
  Model full = build_full_model(spec, &rng);
  ParamSet global = full.export_params();
  std::vector<ClientUpdate> updates;
  const std::size_t n_updates = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n_updates; ++i) {
    updates.push_back({pool.split(global, i % pool.size()), 20});
  }
  for (auto _ : state) {
    ParamSet next = hetero_aggregate(global, updates);
    benchmark::DoNotOptimize(&next);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * n_updates));
}
BENCHMARK(BM_HeteroAggregate)->Arg(4)->Arg(10);

void BM_CodecEncode(benchmark::State& state) {
  const net::Codec codec = static_cast<net::Codec>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  Tensor t = Tensor::randn({n}, rng);
  std::vector<std::uint8_t> buf;
  buf.reserve(net::encoded_payload_size(n, codec));
  for (auto _ : state) {
    buf.clear();
    net::encode_tensor(t, codec, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(
      static_cast<long>(state.iterations() * n * sizeof(float)));
}
BENCHMARK(BM_CodecEncode)
    ->Args({static_cast<long>(net::Codec::kFp16), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kInt8), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kInt8), 1024 * 1024});

void BM_CodecDecode(benchmark::State& state) {
  const net::Codec codec = static_cast<net::Codec>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(8);
  Tensor t = Tensor::randn({n}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, codec, buf);
  const Shape shape{n};
  for (auto _ : state) {
    Tensor back = net::decode_tensor(buf.data(), buf.size(), shape, codec);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(
      static_cast<long>(state.iterations() * n * sizeof(float)));
}
BENCHMARK(BM_CodecDecode)
    ->Args({static_cast<long>(net::Codec::kFp16), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kInt8), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kInt8), 1024 * 1024});

// Sparse-uplink kernels (docs/COMPRESSION.md). Gaussian data is the
// worst case for top-k selection: no exact zeros, so nth_element sees a
// fully contested magnitude ordering.

void BM_TopKSelect(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k =
      net::codec_kept_coords(n, static_cast<net::Codec>(state.range(1)));
  Rng rng(9);
  std::vector<float> data(n);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    std::vector<std::uint32_t> kept = net::topk_select(data.data(), n, k);
    benchmark::DoNotOptimize(kept.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * n));
}
BENCHMARK(BM_TopKSelect)
    ->Args({64 * 1024, static_cast<long>(net::Codec::kTopK1)})
    ->Args({64 * 1024, static_cast<long>(net::Codec::kTopK10)})
    ->Args({1024 * 1024, static_cast<long>(net::Codec::kTopK10)});

void BM_SparseEncode(benchmark::State& state) {
  const net::Codec codec = static_cast<net::Codec>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(10);
  Tensor t = Tensor::randn({n}, rng);
  std::vector<std::uint8_t> buf;
  buf.reserve(net::encoded_payload_size(n, codec));
  for (auto _ : state) {
    buf.clear();
    net::encode_tensor(t, codec, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  // Rate is dense-equivalent input bytes, comparable with BM_CodecEncode.
  state.SetBytesProcessed(
      static_cast<long>(state.iterations() * n * sizeof(float)));
}
BENCHMARK(BM_SparseEncode)
    ->Args({static_cast<long>(net::Codec::kTopK1), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kTopK10), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kTopK10), 1024 * 1024});

void BM_SparseDecode(benchmark::State& state) {
  const net::Codec codec = static_cast<net::Codec>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(11);
  Tensor t = Tensor::randn({n}, rng);
  std::vector<std::uint8_t> buf;
  net::encode_tensor(t, codec, buf);
  const Shape shape{n};
  for (auto _ : state) {
    Tensor back = net::decode_tensor(buf.data(), buf.size(), shape, codec);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(
      static_cast<long>(state.iterations() * n * sizeof(float)));
}
BENCHMARK(BM_SparseDecode)
    ->Args({static_cast<long>(net::Codec::kTopK1), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kTopK10), 64 * 1024})
    ->Args({static_cast<long>(net::Codec::kTopK10), 1024 * 1024});

}  // namespace

int main(int argc, char** argv) {
  // Snapshot writer first: it splices --out/-o away before google-benchmark
  // sees (and rejects) them.
  obs::prof::BenchReport report("micro_kernels", &argc, argv);
  report.set_scale("fixed");  // shapes are hard-coded, no smoke/full split
  // Profile kernels unless the caller chose with AFL_PROFILE.
  if (std::getenv("AFL_PROFILE") == nullptr) obs::prof::set_profiling(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    obs::prof::BenchReport::Scoped all(report, "all_benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  // One section per span: total in-span seconds plus the mean call, so
  // `afl-insight bench diff` can gate per kernel.
  for (const obs::prof::SpanStats& s : obs::prof::snapshot()) {
    report.add_section(s.name, s.wall_seconds,
                       {{"count", static_cast<double>(s.count)},
                        {"mean_us", s.wall_seconds / static_cast<double>(s.count) * 1e6}});
  }
  report.write();
  return 0;
}
