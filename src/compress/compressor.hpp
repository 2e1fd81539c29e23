#pragma once
// Sparsifying uplink pipeline with error feedback (docs/COMPRESSION.md).
//
// The Compressor sits between a policy's trained parameters and the
// transport's return frame. On the way out it delta-codes the update against
// the exact parameter set the client imported (RoundPolicy::local_view()),
// folds in the client's residual, and masks everything but the top-k
// coordinates — the transport's sparse codec then ships only those. On the
// way in it adds the reference back, so aggregation sees a full-shape
// parameter set and the machinery above this layer is untouched.
// Coordinates the mask drops are re-deposited into the ResidualStore; a
// discarded upload (lost frame, straggler, stale async arrival) is
// reclaim()ed wholesale, so no gradient mass is ever silently lost.
//
// Disabled (the default, and whenever the transport's uplink codec is dense)
// every method is a no-op and runs stay byte-identical.

#include <cstddef>
#include <string>
#include <vector>

#include "compress/residual.hpp"
#include "net/transport.hpp"
#include "nn/param.hpp"

namespace afl::compress {

/// Resolved AFL_COMPRESS_* knobs (docs/COMPRESSION.md).
struct CompressConfig {
  /// Error feedback: accumulate dropped coordinates into per-client
  /// residuals and fold them into the next update (AFL_COMPRESS_EF, on).
  bool error_feedback = true;
  /// Drop a departed client's residuals on churn (AFL_COMPRESS_DROP_DEPARTED,
  /// on); off keeps them for a possible return, decayed as usual.
  bool drop_departed = true;
  /// Multiplier applied to the stored residual when folding it into the next
  /// delta (AFL_COMPRESS_DECAY, 1.0 = classic error feedback).
  double residual_decay = 1.0;

  static CompressConfig from_env();
};

class Compressor {
 public:
  Compressor() = default;  // disabled
  /// Enabled iff the transport is on and its uplink codec is sparse.
  Compressor(const net::Transport& transport, CompressConfig config);

  bool enabled() const { return enabled_; }
  net::Codec codec() const { return codec_; }
  const CompressConfig& config() const { return cfg_; }
  const ResidualStore& residuals() const { return store_; }

  /// Turns `params` (a trained parameter set) into the masked top-k delta
  /// against `reference` — the set the client imported, from
  /// RoundPolicy::local_view() — folding in and re-depositing the
  /// client's residual. Must run sequentially in slot/event order (it
  /// mutates per-client state). Throws std::runtime_error when `reference`
  /// does not structurally match `params`.
  void encode_update(std::size_t client, ParamSet& params, const ParamSet& reference);

  /// Inverse of encode_update's delta coding: adds `reference` back onto the
  /// (wire-decoded) masked delta, restoring a full-shape parameter set.
  void decode_update(ParamSet& params, const ParamSet& reference) const;

  /// Returns a shipped-but-discarded masked delta (lost uplink, deadline
  /// straggler, stale async arrival) to the client's residual so the mass is
  /// retried with its next update. No-op without error feedback.
  void reclaim(std::size_t client, const ParamSet& masked_delta);

  /// Population-churn hook: the client left the fleet (docs/POPULATION.md).
  void on_departed(std::size_t client);

  /// Saves or resumes the residuals in an AFLSNAP1 engine snapshot
  /// (ResidualStore::snapshot; `globals` bound the rows resumed). Engines
  /// call this only when enabled(), so snapshots of uncompressed runs stay
  /// byte-identical to pre-compression builds.
  void snapshot(SnapshotStream& s, const std::vector<ParamSet*>& globals) {
    store_.snapshot(s, globals);
  }

 private:
  bool enabled_ = false;
  net::Codec codec_ = net::Codec::kFp32;
  CompressConfig cfg_;
  ResidualStore store_;
};

}  // namespace afl::compress
