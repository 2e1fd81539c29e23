#pragma once
// Per-client error-feedback residual accumulators for the sparsifying uplink
// (docs/COMPRESSION.md).
//
// When a top-k codec drops a coordinate, its gradient mass is not lost: the
// Compressor re-deposits it here and folds it back into the client's next
// delta before selection. Each (client, tensor) row is a dense float per
// flat index, allocated at the row's first write, so folding, masking and
// reclaiming are straight loops; rows exist only for clients that uploaded,
// so lazy runs over huge populations still pay only for clients that
// actually trained.
//
// Determinism: all mutation happens on the engine's sequential commit path,
// and snapshot() serializes the nonzero entries in sorted (client, tensor,
// index) order, so resumed runs are bit-identical at any AFL_THREADS / shard
// count.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/checkpoint.hpp"

namespace afl::compress {

/// The residual of one (client, tensor): leftover mass per flat index, plus
/// the shape those flat indices are taken against. A client whose submodel
/// geometry changes between rounds gets a fresh row — flat indices are not
/// comparable across shapes (the one documented case where mass is dropped).
struct ResidualEntry {
  std::vector<std::size_t> dims;
  /// One slot per flat index of `dims`, or empty until the row's first
  /// write. A zero slot stores nothing.
  std::vector<float> values;
  /// Slots that are nonzero (NaN included): what num_coords() sums.
  std::size_t nonzero = 0;

  /// Stored mass at flat index `i`; 0 where nothing is stored.
  float at(std::size_t i) const { return values.empty() ? 0.0f : values[i]; }
};

class ResidualStore {
 public:
  /// The row for (client, tensor), created empty on first use.
  ResidualEntry& entry(std::size_t client, const std::string& tensor);

  /// Read-only lookup; nullptr when the row does not exist.
  const ResidualEntry* find(std::size_t client, const std::string& tensor) const;

  /// Drops every row of `client` (population churn, docs/POPULATION.md).
  void drop_client(std::size_t client);

  std::size_t num_clients() const { return rows_.size(); }
  /// Total stored (nonzero) coordinates across all rows; sums the per-row
  /// counts, so it never scans row values.
  std::size_t num_coords() const;
  bool empty() const { return rows_.empty(); }
  void clear() { rows_.clear(); }

  /// Saves or resumes the store in an AFLSNAP1 snapshot, in sorted (client,
  /// tensor, index) order: each row's shape, then its nonzero entries as
  /// (index, f64 value) pairs (exact for every f32). Resuming replaces the
  /// store and throws std::runtime_error, before allocating the row, on a
  /// row whose tensor no global in `globals` holds, whose shape exceeds that
  /// tensor's, or whose count or indices it cannot hold.
  void snapshot(SnapshotStream& s, const std::vector<ParamSet*>& globals);

 private:
  // Ordered outer maps keep snapshot order canonical without re-sorting.
  std::map<std::size_t, std::map<std::string, ResidualEntry>> rows_;
};

}  // namespace afl::compress
