#pragma once
// Rolling-window sub-models (FedRolex-style; Alam et al., NeurIPS'22) — the
// main published alternative to the paper's fixed-prefix width pruning.
// Instead of always training the first `w` channels of each layer, the
// round-r window of a unit of width n keeps channels
// {(r + i) mod n : i < w}, so every parameter of the global model is
// trained eventually.
//
// That window is exactly the width-pruned prefix of the global whose
// channels are rolled left by r, so FedRolex* runs HeteroFL on a global
// rolled one step per round (core/baselines.hpp) and needs no gather or
// scatter of its own. It is a design-choice ablation (DESIGN.md §6,
// bench/bench_ablation_rolling.cpp) for plain conv/dense architectures
// (every unit kConv or kLinear, e.g. mini_vgg); residual families would need
// matched index sets across shortcut paths.

#include "arch/spec.hpp"
#include "nn/param.hpp"

namespace afl {

/// Rolls every unit's output channels left by `steps` mod its width, so
/// channel c takes the values of channel (c + steps) mod width, and the
/// next layer's matching input channels with them: kernel taps, or H·W
/// blocks of features after a flatten. Classifier rows stay. A negative
/// `steps` rolls right, so a roll by -r undoes a roll by r. Throws
/// std::invalid_argument, before touching `params`, unless every unit of
/// `spec` is kConv or kLinear.
void roll_channels(ParamSet& params, const ArchSpec& spec, long long steps);

}  // namespace afl
