#include "compress/residual.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace afl::compress {

namespace {

/// One row of ResidualStore::snapshot. Every client update is a prefix of
/// its global's tensor, so a row's shape is bounded, dimension by dimension,
/// by the tensor of its name in `globals` (the largest, when several hold
/// one), which init_global() built before the snapshot is resumed.
void snapshot_row(SnapshotStream& s, std::size_t client, const std::string& name,
                  ResidualEntry& e, const std::vector<ParamSet*>& globals) {
  const auto reject = [&](const std::string& what) {
    throw std::runtime_error("compress: residual snapshot row of client " +
                             std::to_string(client) + ", tensor \"" + name + "\": " + what);
  };
  bool held = false;
  Shape bound;
  for (const ParamSet* global : globals) {
    const auto it = global->find(name);
    if (it == global->end()) continue;
    held = true;
    const Shape& shape = it->second.shape();
    bound.resize(std::max(bound.size(), shape.size()));
    for (std::size_t d = 0; d < shape.size(); ++d) bound[d] = std::max(bound[d], shape[d]);
  }
  if (!held) reject("no global holds the tensor");
  std::uint64_t rank = e.dims.size();
  s.u64(rank);
  if (rank != bound.size()) {
    reject("rank " + std::to_string(rank) + " differs from the global's " +
           std::to_string(bound.size()));
  }
  e.dims.resize(rank);
  std::size_t numel = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    s.u64(e.dims[d]);
    if (e.dims[d] > bound[d]) {
      reject("dimension " + std::to_string(e.dims[d]) + " exceeds the global's " +
             std::to_string(bound[d]));
    }
    numel *= e.dims[d];
  }
  std::uint64_t nnz = e.nonzero;
  s.count(nnz, 2 * sizeof(std::uint64_t), "residual entry");
  if (nnz > numel) reject("more entries than elements: " + std::to_string(nnz));
  if (s.saving()) {
    for (std::uint64_t i = 0; i < e.values.size(); ++i) {
      if (e.values[i] == 0.0f) continue;
      double v = e.values[i];
      s.u64(i);
      s.f64(v);
    }
    return;
  }
  e.values.assign(nnz > 0 ? numel : 0, 0.0f);
  e.nonzero = 0;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < nnz; ++i) {
    std::uint64_t idx = 0;
    double v = 0.0;
    s.u64(idx);
    s.f64(v);
    if (idx >= numel) reject("index out of range: " + std::to_string(idx));
    if (i > 0 && idx <= prev) reject("index not ascending: " + std::to_string(idx));
    prev = idx;
    e.values[idx] = static_cast<float>(v);
    e.nonzero += e.values[idx] != 0.0f;
  }
}

}  // namespace

ResidualEntry& ResidualStore::entry(std::size_t client, const std::string& tensor) {
  return rows_[client][tensor];
}

const ResidualEntry* ResidualStore::find(std::size_t client,
                                         const std::string& tensor) const {
  const auto c = rows_.find(client);
  if (c == rows_.end()) return nullptr;
  const auto t = c->second.find(tensor);
  return t == c->second.end() ? nullptr : &t->second;
}

void ResidualStore::drop_client(std::size_t client) { rows_.erase(client); }

std::size_t ResidualStore::num_coords() const {
  std::size_t n = 0;
  for (const auto& [client, tensors] : rows_) {
    for (const auto& [name, e] : tensors) n += e.nonzero;
  }
  return n;
}

void ResidualStore::snapshot(SnapshotStream& s, const std::vector<ParamSet*>& globals) {
  s.entries(rows_, 2 * sizeof(std::uint64_t), "residual client",
            [&](std::size_t& client, std::map<std::string, ResidualEntry>& tensors) {
              s.u64(client);
              s.entries(tensors, 3 * sizeof(std::uint64_t), "residual row",
                        [&](std::string& name, ResidualEntry& e) {
                          s.str(name);
                          snapshot_row(s, client, name, e, globals);
                        });
            });
}

}  // namespace afl::compress
