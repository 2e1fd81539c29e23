#include "compress/residual.hpp"

#include <stdexcept>
#include <utility>

#include "net/wire.hpp"

namespace afl::compress {

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

void ResidualStore::snapshot(SnapshotWriter& w) const {
  w.u64(rows_.size());
  for (const auto& [client, tensors] : rows_) {
    w.u64(client);
    w.u64(tensors.size());
    for (const auto& [name, e] : tensors) {
      w.str(name);
      w.u64(e.dims.size());
      for (const std::size_t d : e.dims) w.u64(d);
      w.u64(e.nonzero);
      for (std::size_t i = 0; i < e.values.size(); ++i) {
        if (e.values[i] == 0.0f) continue;
        w.u64(i);
        w.f64(static_cast<double>(e.values[i]));
      }
    }
  }
}

void ResidualStore::restore(SnapshotReader& r) {
  rows_.clear();
  const std::uint64_t n_clients = r.u64();
  for (std::uint64_t c = 0; c < n_clients; ++c) {
    const std::size_t client = static_cast<std::size_t>(r.u64());
    const std::uint64_t n_tensors = r.u64();
    auto& tensors = rows_[client];
    for (std::uint64_t t = 0; t < n_tensors; ++t) {
      const std::string name = r.str();
      const auto reject = [&](const std::string& what, std::uint64_t value) {
        throw std::runtime_error("compress: residual snapshot row of client " +
                                 std::to_string(client) + ", tensor \"" + name +
                                 "\": " + what + " " + std::to_string(value));
      };
      // The shape must pass the wire decoder's caps before a row is
      // allocated from it.
      const std::uint64_t rank = r.u64();
      if (rank > net::kMaxRank) reject("rank too large:", rank);
      std::vector<std::size_t> dims(static_cast<std::size_t>(rank));
      std::uint64_t numel = 1;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        const std::uint64_t dim = r.u64();
        if (dim != 0 && numel > net::kMaxNumel / dim) reject("dimension too large:", dim);
        dims[d] = static_cast<std::size_t>(dim);
        numel *= dim;
      }
      const std::uint64_t nnz = r.u64();
      if (nnz > numel) reject("more entries than elements:", nnz);
      ResidualEntry& e = tensors[name];
      e = ResidualEntry{std::move(dims), {}, 0};
      if (nnz > 0) e.values.resize(static_cast<std::size_t>(numel));
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < nnz; ++i) {
        const std::uint64_t idx = r.u64();
        if (idx >= numel) reject("index out of range:", idx);
        if (i > 0 && idx <= prev) reject("index not ascending:", idx);
        prev = idx;
        const float v = static_cast<float>(r.f64());
        e.values[static_cast<std::size_t>(idx)] = v;
        e.nonzero += v != 0.0f;
      }
    }
  }
}

}  // namespace afl::compress
