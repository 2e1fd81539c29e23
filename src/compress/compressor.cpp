#include "compress/compressor.hpp"

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
      row = &store_.entry(client, name);
      if (row->dims != tensor.shape()) {
        // Geometry changed (e.g. AdaptiveFL re-assigned the client a
        // different submodel level): old flat indices are meaningless.
        row->coords.clear();
        row->dims = tensor.shape();
      }
      const float decay = static_cast<float>(cfg_.residual_decay);
      // Each coordinate is touched exactly once, so the hash map's iteration
      // order cannot affect the result.
      for (const auto& [idx, v] : row->coords) x[idx] += decay * v;
      row->coords.clear();
    }

    const std::size_t k = net::codec_kept_coords(n, codec_);
    const std::vector<std::uint32_t> keep = net::topk_select(x, n, k);
    // Mask: zero out everything unselected, re-depositing nonzero mass.
    std::size_t ki = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ki < keep.size() && keep[ki] == i) {
        ++ki;
        continue;
      }
      if (row != nullptr && x[i] != 0.0f) {
        row->coords.emplace(static_cast<std::uint32_t>(i), x[i]);
      }
      x[i] = 0.0f;
    }
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
    ResidualEntry& row = store_.entry(client, name);
    if (row.dims != tensor.shape()) {
      row.coords.clear();
      row.dims = tensor.shape();
    }
    const float* x = tensor.data();
    const std::size_t n = tensor.numel();
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] != 0.0f) row.coords[static_cast<std::uint32_t>(i)] += x[i];
    }
  }
  obs::metrics().counter("afl.compress.reclaims").inc();
}

void Compressor::on_departed(std::size_t client) {
  if (!enabled_ || !cfg_.drop_departed) return;
  store_.drop_client(client);
  obs::metrics().counter("afl.compress.residual.dropped_clients").inc();
}

void Compressor::snapshot(SnapshotWriter& w) const { store_.snapshot(w); }

void Compressor::restore(SnapshotReader& r) { store_.restore(r); }

}  // namespace afl::compress
