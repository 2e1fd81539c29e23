#pragma once
// Composable, stateful aggregation (the hierarchical scale-out primitive —
// see docs/HIERARCHY.md).
//
// A ShardAggregator folds ClientUpdates incrementally into per-element
// coverage mass: for every element of the global parameter set it tracks
//   value_sum  = sum over covering updates of  value * data_size * weight
//   weight_sum = sum over covering updates of          data_size * weight
// A ShardPartial carrying those two masses is mergeable: element-wise
// addition composes aggregation across shards, because a weighted mean of
// weighted means with carried coverage mass is exact (Algorithm 2 per-element
// math). `hetero_aggregate` / `fedavg_aggregate` are thin wrappers over a
// single-shard fold.
//
// Exactness contract: masses are accumulated in 128-bit *fixed-point*
// (kMassFracBits fractional bits), not floating point. Each contribution is
// quantized once — a pure per-update function — and integer addition is
// exactly associative and commutative, so merging partials is bit-identical
// for any grouping or order of updates:
//     merge(fold(A), fold(B)) == fold(A ∪ B)     (exactly, 0 ulp)
// This is what makes hierarchical runs invariant to the shard count
// (tests/shard_aggregator_test.cpp, tests/hier_determinism_test.cpp).
// The quantum is 2^-72 ≈ 2.1e-22; contributions smaller than that (including
// coverage weights below 2^-72) round to zero mass, and total per-element
// mass beyond ±2^126 · 2^-72 ≈ ±1.7e16 saturates — both far outside any
// realistic parameter/weight range.
//
// Cost: every tensor's mass records its extent, the prefix box of the shapes
// folded into it, so merge, clear and finalize touch only folded elements, and
// a partial keeps its storage for as long as it lives.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/aggregate.hpp"
#include "nn/param.hpp"

namespace afl {

/// 128-bit signed fixed-point accumulator for one element's mass.
using MassInt = __int128;

/// Fractional bits of the fixed-point mass representation.
inline constexpr int kMassFracBits = 72;

/// Quantizes one real-valued contribution to fixed point: v · 2^72 truncated
/// toward zero, saturating at ±2^126; NaN gives 0. Read straight from the
/// double's bits: |v| · 2^72 = m · 2^(e - 1003) for the 53-bit significand m
/// and biased exponent e, so the magnitude is m shifted left (exact) or right
/// (truncating), and zero and subnormals fall below the quantum.
inline MassInt quantize_mass(double v) {
  constexpr int kSignificandBits = 52;
  constexpr int kSaturationShift = 126 - kSignificandBits;  // m · 2^74 >= 2^126
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int exponent = static_cast<int>((bits >> kSignificandBits) & 0x7ff);
  const int shift = exponent - (1075 - kMassFracBits);
  const bool negative = (bits >> 63) != 0;
  if (shift >= kSaturationShift) {  // infinity included
    if (exponent == 0x7ff && (bits << 12) != 0) return 0;  // NaN
    const MassInt limit = static_cast<MassInt>(1) << 126;
    return negative ? -limit : limit;
  }
  if (shift <= -(kSignificandBits + 1)) return 0;  // below the quantum
  const std::uint64_t m =
      (bits & ((std::uint64_t{1} << kSignificandBits) - 1)) | (std::uint64_t{1} << kSignificandBits);
  const MassInt magnitude = shift >= 0 ? static_cast<MassInt>(m) << shift
                                       : static_cast<MassInt>(m >> -shift);
  // Negate without a branch: signs of parameters are not predictable.
  const MassInt sign = -static_cast<MassInt>(negative);
  return (magnitude ^ sign) - sign;
}

/// The double nearest to `m` (ties to even): the same value as
/// static_cast<double>(m), without libgcc's 128-bit conversion. The top 64
/// significant bits, with every discarded bit ORed into bit 0, round to the
/// same double as all 128, because 64 >= 53 + 2 keeps the rounding and
/// sticky positions apart; the power-of-two rescale is exact.
inline double mass_to_double(MassInt m) {
  using U128 = unsigned __int128;
  // |m| and, at the end, the sign bit, without branches.
  const std::uint64_t negative = static_cast<std::uint64_t>(m < 0);
  const U128 sign = -static_cast<U128>(negative);
  const U128 u = (static_cast<U128>(m) ^ sign) - sign;
  const std::uint64_t hi = static_cast<std::uint64_t>(u >> 64);
  const std::uint64_t lo = static_cast<std::uint64_t>(u);
  double d;
  if (hi == 0) {
    d = static_cast<double>(lo);
  } else {
    const int shift = 64 - std::countl_zero(hi);  // 1..64 low bits dropped
    const std::uint64_t top = static_cast<std::uint64_t>(u >> shift) |
                              static_cast<std::uint64_t>((lo << (64 - shift)) != 0);
    d = static_cast<double>(top) *
        std::bit_cast<double>(static_cast<std::uint64_t>(1023 + shift) << 52);
  }
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) | negative << 63);
}

/// Mergeable result of folding a set of ClientUpdates: per-element value and
/// coverage-weight mass for every tensor of the global structure.
struct ShardPartial {
  struct TensorMass {
    std::vector<MassInt> value;   // sum of value * data_size * weight
    std::vector<MassInt> weight;  // sum of         data_size * weight
    Shape dims;                   // the global tensor's shape
    /// Per-dimension maximum of the shapes folded into this mass: a prefix
    /// box of `dims` that holds every nonzero element. All zero while
    /// nothing is folded.
    Shape extent;
  };
  /// Keyed like the global ParamSet; holds every global tensor name, or
  /// nothing for a default-constructed partial.
  std::map<std::string, TensorMass> tensors;
  /// Updates folded in (across all merged shards).
  std::size_t updates = 0;

  ShardPartial() = default;
  /// Zero mass with empty extents for every tensor of `global`.
  explicit ShardPartial(const ParamSet& global);

  bool empty() const { return updates == 0; }
  /// Zeroes every element inside each extent, so every mass element is zero
  /// again, and empties the extents; the storage is kept.
  void clear();
};

/// Accumulates ClientUpdates against a fixed global structure. The structure
/// (names + shapes) is snapshotted at construction; updates may cover any
/// dimension-wise prefix of each tensor (kHetero) or must match exactly
/// (kFedAvg, the classic FedAvg validation).
class ShardAggregator {
 public:
  enum class Mode { kHetero, kFedAvg };

  explicit ShardAggregator(const ParamSet& global, Mode mode = Mode::kHetero);

  /// Folds one update. Neither overload copies parameter tensors; the rvalue
  /// overload additionally releases the update's ParamSet before returning
  /// (the moved-from update is left empty), so edge aggregation over 10^5
  /// clients never holds two copies of an update.
  void add(const ClientUpdate& update);
  void add(ClientUpdate&& update);
  /// Adds a partial of the same structure (merge_partials by reference).
  void merge(const ShardPartial& from);

  std::size_t updates() const { return partial_.updates; }
  Mode mode() const { return mode_; }

  const ShardPartial& partial() const { return partial_; }
  /// Moves the accumulated partial out and leaves this aggregator empty on
  /// fresh storage. Callers that fold again should read partial() and
  /// reset() instead, which keeps the storage.
  ShardPartial take_partial();
  /// Empties the partial in place (ShardPartial::clear).
  void reset() { partial_.clear(); }

 private:
  void accumulate(const Tensor& src, ShardPartial::TensorMass& mass, double weight) const;

  Mode mode_;
  ShardPartial partial_;
};

/// Element-wise exact merge of two partials over the same global structure,
/// adding only `from`'s extents; an `into` without structure becomes a copy.
/// Commutative and associative (integer sums).
void merge_partials(ShardPartial& into, const ShardPartial& from);

/// Collapses a partial into new global parameters: each covered element
/// becomes value_mass / weight_mass (the fixed-point scale cancels), and
/// elements with zero coverage mass keep their previous global value
/// (Algorithm 2, line 14).
ParamSet finalize_partial(const ShardPartial& partial, const ParamSet& global);

}  // namespace afl
