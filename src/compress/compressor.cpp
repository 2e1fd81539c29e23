#include "compress/compressor.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "util/env.hpp"

namespace afl::compress {
namespace {

void check_reference(const std::string& name, const Tensor& tensor,
                     const ParamSet& reference, const Tensor** ref_out) {
  const auto it = reference.find(name);
  if (it == reference.end() || !it->second.same_shape(tensor)) {
    throw std::runtime_error(
        "compress: local_view() mismatch for tensor \"" + name +
        "\" shape " + shape_to_string(tensor.shape()) +
        (it == reference.end() ? " (missing from reference)"
                               : " (reference shape " +
                                     shape_to_string(it->second.shape()) + ")"));
  }
  *ref_out = &it->second;
}

/// The row of (client, name), reset when its shape differs from `tensor`'s.
ResidualEntry& shaped_row(ResidualStore& store, std::size_t client,
                          const std::string& name, const Tensor& tensor) {
  ResidualEntry& row = store.entry(client, name);
  if (row.dims != tensor.shape()) {
    // Geometry changed (e.g. AdaptiveFL re-assigned the client a different
    // submodel level): old flat indices are meaningless.
    row = ResidualEntry{tensor.shape(), {}, 0};
  }
  return row;
}

}  // namespace

CompressConfig CompressConfig::from_env() {
  CompressConfig cfg;
  cfg.error_feedback = env_or("AFL_COMPRESS_EF", 1) != 0;
  cfg.drop_departed = env_or("AFL_COMPRESS_DROP_DEPARTED", 1) != 0;
  cfg.residual_decay = env_or("AFL_COMPRESS_DECAY", 1.0);
  return cfg;
}

Compressor::Compressor(const net::Transport& transport, CompressConfig config)
    : cfg_(config) {
  enabled_ = transport.enabled() && net::codec_is_sparse(transport.uplink_codec());
  if (enabled_) codec_ = transport.uplink_codec();
}

void Compressor::encode_update(std::size_t client, ParamSet& params,
                               const ParamSet& reference) {
  if (!enabled_) return;
  AFL_PROF_SPAN("compress.encode_update");
  std::size_t dense_bytes = 0;
  std::size_t kept_coords = 0;
  for (auto& [name, tensor] : params) {
    const Tensor* ref = nullptr;
    check_reference(name, tensor, reference, &ref);
    float* x = tensor.data();
    const float* r = ref->data();
    const std::size_t n = tensor.numel();
    for (std::size_t i = 0; i < n; ++i) x[i] -= r[i];

    ResidualEntry* row = nullptr;
    if (cfg_.error_feedback) {
      row = &shaped_row(store_, client, name, tensor);
      const float decay = static_cast<float>(cfg_.residual_decay);
      // Only stored (nonzero) slots fold in: an unconditional x + 0.0f would
      // turn a -0.0f delta into +0.0f.
      const float* v = row->values.data();
      for (std::size_t i = 0; i < row->values.size(); ++i) {
        if (v[i] != 0.0f) x[i] += decay * v[i];
      }
      if (row->values.empty()) row->values.resize(n);
    }

    const std::size_t k = net::codec_kept_coords(n, codec_);
    const std::vector<std::uint32_t> keep = net::topk_select(x, n, k);
    // Mask: everything unselected goes to zero; with error feedback the row
    // becomes exactly the unselected nonzero mass.
    std::vector<float> shipped(keep.size());
    for (std::size_t j = 0; j < keep.size(); ++j) shipped[j] = x[keep[j]];
    if (row != nullptr) {
      float* v = row->values.data();
      std::size_t nonzero = 0;
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = x[i] != 0.0f ? x[i] : 0.0f;
        nonzero += x[i] != 0.0f;
      }
      for (const std::uint32_t i : keep) {
        nonzero -= v[i] != 0.0f;
        v[i] = 0.0f;
      }
      row->nonzero = nonzero;
    }
    std::fill(x, x + n, 0.0f);
    for (std::size_t j = 0; j < keep.size(); ++j) x[keep[j]] = shipped[j];
    dense_bytes += n * sizeof(float);
    kept_coords += keep.size();
  }

  obs::Registry& reg = obs::metrics();
  reg.counter("afl.compress.updates").inc();
  reg.counter("afl.compress.dense.bytes").inc(dense_bytes);
  reg.counter("afl.compress.kept.coords").inc(kept_coords);
  reg.gauge("afl.compress.residual.clients")
      .set(static_cast<double>(store_.num_clients()));
  reg.gauge("afl.compress.residual.coords")
      .set(static_cast<double>(store_.num_coords()));
}

void Compressor::decode_update(ParamSet& params, const ParamSet& reference) const {
  if (!enabled_) return;
  for (auto& [name, tensor] : params) {
    const Tensor* ref = nullptr;
    check_reference(name, tensor, reference, &ref);
    float* x = tensor.data();
    const float* r = ref->data();
    const std::size_t n = tensor.numel();
    for (std::size_t i = 0; i < n; ++i) x[i] += r[i];
  }
}

void Compressor::reclaim(std::size_t client, const ParamSet& masked_delta) {
  if (!enabled_ || !cfg_.error_feedback) return;
  for (const auto& [name, tensor] : masked_delta) {
    ResidualEntry& row = shaped_row(store_, client, name, tensor);
    const float* x = tensor.data();
    const std::size_t n = tensor.numel();
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] == 0.0f) continue;
      if (row.values.empty()) row.values.resize(n);
      // A slot that cancels to exactly 0 stores nothing afterwards. An engine
      // run never gets here: the shipped and the dropped sets are disjoint.
      row.values[i] += x[i];
    }
    row.nonzero = static_cast<std::size_t>(std::count_if(
        row.values.begin(), row.values.end(), [](float v) { return v != 0.0f; }));
  }
  obs::metrics().counter("afl.compress.reclaims").inc();
}

void Compressor::on_departed(std::size_t client) {
  if (!enabled_ || !cfg_.drop_departed) return;
  store_.drop_client(client);
  obs::metrics().counter("afl.compress.residual.dropped_clients").inc();
}

}  // namespace afl::compress
