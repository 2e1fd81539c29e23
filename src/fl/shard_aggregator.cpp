#include "fl/shard_aggregator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace afl {
namespace {

ShardPartial::TensorMass zero_mass(const Shape& dims) {
  ShardPartial::TensorMass mass;
  mass.value.assign(shape_numel(dims), 0);
  mass.weight.assign(shape_numel(dims), 0);
  mass.dims = dims;
  mass.extent.assign(dims.size(), 0);
  return mass;
}

/// Calls f(offset, box_offset, length) for each contiguous run of the prefix
/// box `box` inside a row-major tensor of shape `dims`, in row-major order:
/// `offset` indexes the tensor, `box_offset` a dense row-major copy of the
/// box. Trailing dimensions the box covers in full join one run, so an
/// [O', I', 3, 3] box of an [O, I, 3, 3] tensor is O' runs of I'·9 elements,
/// and a full box is one run.
template <typename F>
void for_each_run(const Shape& dims, const Shape& box, F&& f) {
  if (shape_numel(box) == 0) return;
  // Dimensions after `split` are covered in full; the odometer walks only
  // the ones before it.
  std::size_t split = dims.size();
  std::size_t run = 1;
  while (split > 0) {
    --split;
    run *= box[split];
    if (box[split] != dims[split]) break;
  }
  std::vector<std::size_t> stride(split), idx(split, 0);
  std::size_t inner = 1;
  for (std::size_t d = dims.size(); d > split; --d) inner *= dims[d - 1];
  for (std::size_t d = split; d > 0; --d) {
    stride[d - 1] = inner;
    inner *= dims[d - 1];
  }
  std::size_t offset = 0;
  std::size_t box_offset = 0;
  for (;;) {
    f(offset, box_offset, run);
    box_offset += run;
    std::size_t d = split;
    for (;;) {
      if (d == 0) return;
      --d;
      offset += stride[d];
      if (++idx[d] < box[d]) break;
      offset -= stride[d] * box[d];
      idx[d] = 0;
    }
  }
}

void grow_extent(Shape& extent, const Shape& shape) {
  for (std::size_t d = 0; d < extent.size(); ++d) extent[d] = std::max(extent[d], shape[d]);
}

}  // namespace

ShardPartial::ShardPartial(const ParamSet& global) {
  for (const auto& [name, g] : global) tensors.emplace(name, zero_mass(g.shape()));
}

void ShardPartial::clear() {
  for (auto& [name, mass] : tensors) {
    for_each_run(mass.dims, mass.extent, [&](std::size_t offset, std::size_t, std::size_t len) {
      std::fill_n(mass.value.begin() + offset, len, 0);
      std::fill_n(mass.weight.begin() + offset, len, 0);
    });
    std::fill(mass.extent.begin(), mass.extent.end(), 0);
  }
  updates = 0;
}

ShardAggregator::ShardAggregator(const ParamSet& global, Mode mode)
    : mode_(mode), partial_(global) {}

void ShardAggregator::accumulate(const Tensor& src, ShardPartial::TensorMass& mass,
                                 double weight) const {
  const Shape& ss = src.shape();
  if (mode_ == Mode::kFedAvg) {
    if (ss != mass.dims) {
      throw std::invalid_argument("fedavg_aggregate: structure mismatch");
    }
  } else {
    if (ss.size() != mass.dims.size()) {
      throw std::invalid_argument("hetero_aggregate: rank mismatch");
    }
    for (std::size_t d = 0; d < ss.size(); ++d) {
      if (ss[d] > mass.dims[d]) {
        throw std::invalid_argument(
            "hetero_aggregate: client tensor exceeds global");
      }
    }
  }
  if (src.numel() == 0) return;
  const MassInt wq = quantize_mass(weight);
  const float* in = src.data();
  for_each_run(mass.dims, ss, [&](std::size_t offset, std::size_t src_offset, std::size_t len) {
    MassInt* value = mass.value.data() + offset;
    MassInt* w = mass.weight.data() + offset;
    const float* x = in + src_offset;
    for (std::size_t i = 0; i < len; ++i) {
      value[i] += quantize_mass(static_cast<double>(x[i]) * weight);
      w[i] += wq;
    }
  });
  grow_extent(mass.extent, ss);
}

void ShardAggregator::add(const ClientUpdate& update) {
  if (mode_ == Mode::kFedAvg && update.params.size() != partial_.tensors.size()) {
    throw std::invalid_argument("fedavg_aggregate: structure mismatch");
  }
  const double weight = static_cast<double>(update.data_size) * update.weight;
  for (auto& [name, mass] : partial_.tensors) {
    auto it = update.params.find(name);
    if (it == update.params.end()) {
      if (mode_ == Mode::kFedAvg) {
        throw std::invalid_argument("fedavg_aggregate: structure mismatch");
      }
      continue;  // depth-pruned model: layer absent
    }
    accumulate(it->second, mass, weight);
  }
  ++partial_.updates;
}

void ShardAggregator::add(ClientUpdate&& update) {
  add(static_cast<const ClientUpdate&>(update));
  // Release the tensors now — the point of the rvalue path is that a shard
  // folding 10^5 updates never retains them.
  update.params.clear();
}

void ShardAggregator::merge(const ShardPartial& from) { merge_partials(partial_, from); }

ShardPartial ShardAggregator::take_partial() {
  ShardPartial fresh;
  for (const auto& [name, mass] : partial_.tensors) {
    fresh.tensors.emplace(name, zero_mass(mass.dims));
  }
  return std::exchange(partial_, std::move(fresh));
}

void merge_partials(ShardPartial& into, const ShardPartial& from) {
  if (into.tensors.empty()) {
    into = from;
    return;
  }
  if (from.tensors.empty()) return;
  if (into.tensors.size() != from.tensors.size()) {
    throw std::invalid_argument("merge_partials: structure mismatch");
  }
  for (auto& [name, mass] : into.tensors) {
    auto it = from.tensors.find(name);
    if (it == from.tensors.end() || it->second.dims != mass.dims) {
      throw std::invalid_argument("merge_partials: structure mismatch");
    }
    const ShardPartial::TensorMass& src = it->second;
    for_each_run(mass.dims, src.extent, [&](std::size_t offset, std::size_t, std::size_t len) {
      for (std::size_t i = offset; i < offset + len; ++i) {
        mass.value[i] += src.value[i];
        mass.weight[i] += src.weight[i];
      }
    });
    grow_extent(mass.extent, src.extent);
  }
  into.updates += from.updates;
}

ParamSet finalize_partial(const ShardPartial& partial, const ParamSet& global) {
  ParamSet out;
  for (const auto& [name, g] : global) {
    // Elements covered by no upload keep their previous value (Algorithm 2,
    // line 14); only the extent can hold coverage mass.
    Tensor t = g;
    auto it = partial.tensors.find(name);
    if (it != partial.tensors.end()) {
      const ShardPartial::TensorMass& mass = it->second;
      if (mass.value.size() != g.numel()) {
        throw std::invalid_argument("finalize_partial: structure mismatch");
      }
      for_each_run(mass.dims, mass.extent, [&](std::size_t offset, std::size_t, std::size_t len) {
        for (std::size_t i = offset; i < offset + len; ++i) {
          // The 2^-72 fixed-point scale cancels in the ratio.
          if (mass.weight[i] > 0) {
            t[i] = static_cast<float>(mass_to_double(mass.value[i]) /
                                      mass_to_double(mass.weight[i]));
          }
        }
      });
    }
    out.emplace(name, std::move(t));
  }
  return out;
}

}  // namespace afl
