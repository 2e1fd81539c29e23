#pragma once
// Engine snapshot/resume plumbing shared by the round engine (src/engine/,
// flat and sharded) and the async engine (src/async/) — docs/POPULATION.md.
//
// A snapshot is an AFLSNAP1 file (nn/checkpoint.hpp SnapshotStream:
// CRC-32-verified typed primitives) capturing everything a run needs to
// continue bit-identically: a format/fingerprint header, the partial
// RunResult (curve, comm counters, simulated clock — everything except the
// wall-clock round_metrics, which are inherently nondeterministic and are
// excluded from the bit-identity contract), the engine RNG,
// engine-specific state (virtual clocks, in-flight async dispatches), the
// compressor's residuals, and the policy's globals plus its own state beyond
// them (RoundPolicy::snapshot). Each section is one function for both
// directions (engine::RunCore's frame), so a field cannot be saved without
// being read back.
//
// Resume order everywhere: the engine calls policy.init_global(rng) first
// (structure: model shapes, table sizes), then restores the snapshot over
// it (values: weights, RL cells, RNG position) — so a resumed run's round
// k+1 starts from exactly the state the uninterrupted run had.

#include <cstddef>
#include <string>

#include "engine/run.hpp"
#include "fl/comm.hpp"
#include "nn/checkpoint.hpp"
#include "util/rng.hpp"

namespace afl::engine {

/// Per-mode snapshot format ids (the first field of every snapshot file): a
/// flat round-engine run, the async engine, a sharded round-engine run. A run
/// refuses to resume a snapshot written in another mode or an older layout
/// revision. Async v2 carries no wall-clock field, so identical logical state
/// gives identical bytes.
inline constexpr const char* kSyncSnapshotFormat = "afl.snap.sync.v1";
inline constexpr const char* kAsyncSnapshotFormat = "afl.snap.async.v2";
inline constexpr const char* kHierSnapshotFormat = "afl.snap.hier.v1";

/// Resolved snapshot/resume plan of one run. FlRunConfig fields take
/// precedence; unset fields fall back to the AFL_SNAPSHOT /
/// AFL_SNAPSHOT_EVERY / AFL_STOP_AFTER / AFL_RESUME environment variables.
struct SnapshotPlan {
  std::string snapshot_path;         // empty = snapshotting off
  std::size_t snapshot_every = 1;    // rounds between snapshots
  std::size_t stop_after_round = 0;  // halt after round k (0 = run to the end)
  std::string resume_from;           // empty = fresh start

  bool save_enabled() const { return !snapshot_path.empty(); }
  bool resume_enabled() const { return !resume_from.empty(); }

  /// Whether a snapshot is due at the end of 1-based `round`.
  bool due(std::size_t round) const {
    if (!save_enabled()) return false;
    if (stop_after_round > 0 && round == stop_after_round) return true;
    return snapshot_every > 0 && round % snapshot_every == 0;
  }

  /// Whether the run halts after 1-based `round` (partial RunResult).
  bool stop_after(std::size_t round) const {
    return stop_after_round > 0 && round >= stop_after_round;
  }

  static SnapshotPlan resolve(const FlRunConfig& config);
};

/// Header every engine snapshot leads with: a per-engine format id, the run
/// fingerprint and the snapshotted round, which it returns. Resuming throws
/// std::runtime_error when the format or fingerprint of the file does not
/// match the resuming run: resuming under a different config would silently
/// diverge instead of reproducing.
std::size_t snapshot_header(SnapshotStream& s, const std::string& format,
                            const FlRunConfig& config, const std::string& algorithm,
                            std::size_t round);

/// The generator's complete state.
void snapshot_rng(SnapshotStream& s, Rng::State& st);

/// The deterministic portion of a RunResult: algorithm, curve, final/level
/// accuracies, comm counters, failure count, sim clock, time-to-acc table.
/// wall_seconds and round_metrics stay out (wall-clock nondeterminism).
void snapshot_result(SnapshotStream& s, RunResult& result);

}  // namespace afl::engine
