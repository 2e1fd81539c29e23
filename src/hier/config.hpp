#pragma once
// Configuration of sharded (hierarchical multi-aggregator) rounds of the
// RoundEngine (engine/round_engine.hpp, docs/HIERARCHY.md). Standalone header
// (no library dependencies beyond the standard library) so FlRunConfig can
// embed it; from_env() lives in src/hier/config.cpp, which afl_engine links
// because the RoundEngine resolves the config itself.
//
// A sharded run partitions the client population across `shards` edge
// aggregators. Each edge folds its partition's updates into a mergeable
// coverage-mass partial (fl/shard_aggregator.hpp); the root merge combines
// the shard partials every `sync_every` edge rounds and commits the new
// global model. With sync_every == 1 the result is bit-identical to the flat
// (one-shard) run for any shard count and any AFL_THREADS.

#include <cstddef>

namespace afl::hier {

struct HierConfig {
  /// Master switch. Disabled (default) is the flat run: one shard, whatever
  /// `shards` says.
  bool enabled = false;
  /// Number of edge aggregator shards; clients are partitioned by
  /// client_id % shards. 0 resolves to 1.
  std::size_t shards = 4;
  /// Edge rounds between root merges. 1 (default) = merge every round, the
  /// shard-count-invariant mode; larger values let shard models diverge
  /// locally between syncs (docs/HIERARCHY.md).
  std::size_t sync_every = 1;

  /// Resolves the AFL_HIER_* environment variables (docs/HIERARCHY.md):
  /// AFL_HIER (master, unset/"0" = disabled), AFL_HIER_SHARDS,
  /// AFL_HIER_SYNC_EVERY.
  static HierConfig from_env();
};

}  // namespace afl::hier
