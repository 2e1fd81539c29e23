#include "prune/rolling.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace afl {
namespace {

/// Rotates every run of `run` consecutive elements of `t` left by `shift`.
void rotate_runs(Tensor& t, std::size_t run, std::size_t shift) {
  if (shift == 0) return;
  for (float* p = t.data(); p != t.data() + t.numel(); p += run) {
    std::rotate(p, p + shift, p + run);
  }
}

}  // namespace

void roll_channels(ParamSet& params, const ArchSpec& spec, long long steps) {
  for (const Unit& u : spec.units) {
    if (u.kind != UnitKind::kConv && u.kind != UnitKind::kLinear) {
      throw std::invalid_argument("roll_channels: only conv/dense architectures are supported");
    }
  }
  std::size_t in_width = spec.in_channels;
  std::size_t in_roll = 0;  // the previous unit's roll
  // A weight row holds `in_width` equal blocks, one per input channel.
  const auto roll_inputs = [&](Tensor& w) {
    const std::size_t row = w.numel() / w.shape()[0];
    rotate_runs(w, row, in_roll * (row / in_width));
  };
  for (std::size_t j = 0; j < spec.num_units(); ++j) {
    const std::string name = ArchSpec::unit_name(j + 1);
    Tensor& w = params.at(name + ".w");
    Tensor& b = params.at(name + ".b");
    const long long width = static_cast<long long>(spec.units[j].out_c);
    const std::size_t roll = static_cast<std::size_t>((steps % width + width) % width);
    roll_inputs(w);
    rotate_runs(w, w.numel(), roll * (w.numel() / w.shape()[0]));
    rotate_runs(b, b.numel(), roll);
    in_width = spec.units[j].out_c;
    in_roll = roll;
  }
  roll_inputs(params.at("cls.w"));
}

}  // namespace afl
