#include "arch/build.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "arch/stats.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace afl {
namespace {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel, std::size_t stride,
                         std::size_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

std::unique_ptr<Sequential> make_exit_head(std::size_t in_c, std::size_t classes) {
  auto head = std::make_unique<Sequential>();
  head->append(std::make_unique<GlobalAvgPool>());
  head->append(std::make_unique<Linear>(in_c, classes));
  return head;
}

}  // namespace

Model build_model(const ArchSpec& spec, const WidthPlan& plan, Rng* init_rng,
                  const BuildOptions& options) {
  if (!plan_is_valid(spec, plan)) {
    throw std::invalid_argument("build_model: invalid width plan for " + spec.name);
  }
  const std::size_t depth =
      options.depth_units == 0 ? spec.num_units()
                               : std::min(options.depth_units, spec.num_units());
  for (std::size_t e : options.exits) {
    if (e == 0 || e >= depth) {
      throw std::invalid_argument("build_model: exit index must be in [1, depth)");
    }
  }
  const std::vector<std::size_t> widths = unit_widths(spec, plan);

  Model model;
  std::size_t h = spec.in_h, w = spec.in_w;
  std::size_t in_c = spec.in_channels;
  bool spatial = true;

  // Last pipeline layer index per built unit (1-based), so exit heads attach
  // after the unit's whole layer group (e.g. conv + relu + pool).
  std::vector<std::size_t> unit_end(depth + 1, 0);
  // Channel width at each unit boundary (for exit-head input sizes).
  std::vector<std::size_t> unit_channels(depth + 1, spec.in_channels);

  for (std::size_t j = 0; j < depth; ++j) {
    const Unit& u = spec.units[j];
    const std::size_t out_c = widths[j];
    const std::string name = ArchSpec::unit_name(j + 1);
    std::size_t last = 0;
    // A window of `kernel` (with `pad` on each side) must fit the plane the
    // unit receives, or the layer's output size would wrap.
    const auto require_fit = [&](std::size_t kernel, std::size_t pad, const char* what) {
      if (h + 2 * pad < kernel || w + 2 * pad < kernel || h == 0 || w == 0) {
        throw std::invalid_argument(
            "build_model: " + spec.name + " unit " + name + ": " + what + " window " +
            std::to_string(kernel) + "x" + std::to_string(kernel) + " (pad " +
            std::to_string(pad) + ") does not fit its " + std::to_string(h) + "x" +
            std::to_string(w) + " input plane");
      }
    };
    switch (u.kind) {
      case UnitKind::kConv: {
        require_fit(u.kernel, u.pad, "conv");
        model.append(name,
                     std::make_unique<Conv2D>(in_c, out_c, u.kernel, u.stride, u.pad));
        last = model.append(name + ".relu", std::make_unique<ReLU>());
        h = conv_out_dim(h, u.kernel, u.stride, u.pad);
        w = conv_out_dim(w, u.kernel, u.stride, u.pad);
        if (u.maxpool_after) {
          require_fit(2, 0, "max pool");
          last = model.append(name + ".pool", std::make_unique<MaxPool2D>());
          h /= 2;
          w /= 2;
        }
        break;
      }
      case UnitKind::kBasicBlock: {
        require_fit(3, 1, "block");
        if (!u.projection && out_c > in_c) {
          throw std::invalid_argument(
              "build_model: identity-shortcut block widens channels in " + spec.name);
        }
        last = model.append(
            name, std::make_unique<BasicBlock>(in_c, out_c, u.stride, u.projection));
        h = conv_out_dim(h, 3, u.stride, 1);
        w = conv_out_dim(w, 3, u.stride, 1);
        break;
      }
      case UnitKind::kInvertedResidual: {
        require_fit(3, 1, "block");
        const std::size_t base_in =
            (j == 0) ? spec.in_channels : spec.units[j - 1].out_c;
        const std::size_t hidden = scaled_width(
            static_cast<std::size_t>(static_cast<double>(base_in) * u.expansion),
            plan[j]);
        last = model.append(name, std::make_unique<InvertedResidualBlock>(
                                      in_c, hidden, out_c, u.stride, u.residual));
        h = conv_out_dim(h, 3, u.stride, 1);
        w = conv_out_dim(w, 3, u.stride, 1);
        break;
      }
      case UnitKind::kLinear: {
        std::size_t in_f = in_c;
        if (spatial) {
          if (spec.gap_before_classifier) {
            model.append(name + ".gap", std::make_unique<GlobalAvgPool>());
          } else {
            model.append(name + ".flatten", std::make_unique<Flatten>());
            in_f = in_c * h * w;
          }
          spatial = false;
        }
        model.append(name, std::make_unique<Linear>(in_f, out_c));
        last = model.append(name + ".relu", std::make_unique<ReLU>());
        break;
      }
    }
    unit_end[j + 1] = last;
    unit_channels[j + 1] = out_c;
    in_c = out_c;
  }

  // Classifier. A depth-truncated model is classified by the exit head of its
  // deepest unit, appended inline so forward() always returns logits. The
  // inline layers mirror an attached Sequential head's parameter names
  // ("exit<j>.1.w" — index 0 is the GAP, index 1 the Linear).
  if (depth < spec.num_units()) {
    if (!spatial) {
      throw std::invalid_argument(
          "build_model: depth truncation inside the dense classifier stack");
    }
    const std::string ename = "exit" + std::to_string(depth);
    model.append(ename + ".0", std::make_unique<GlobalAvgPool>());
    model.append(ename + ".1", std::make_unique<Linear>(in_c, spec.num_classes));
  } else {
    std::size_t in_f = in_c;
    if (spatial) {
      if (spec.gap_before_classifier) {
        model.append("cls.gap", std::make_unique<GlobalAvgPool>());
      } else {
        model.append("cls.flatten", std::make_unique<Flatten>());
        in_f = in_c * h * w;
      }
    }
    model.append("cls", std::make_unique<Linear>(in_f, spec.num_classes));
  }

  // Attached early-exit heads.
  for (std::size_t e : options.exits) {
    model.attach_exit("exit" + std::to_string(e), unit_end[e],
                      make_exit_head(unit_channels[e], spec.num_classes));
  }

  if (init_rng != nullptr) kaiming_init(model, *init_rng);
  return model;
}

Model build_full_model(const ArchSpec& spec, Rng* init_rng) {
  return build_model(spec, WidthPlan(spec.num_units(), 1.0), init_rng);
}

}  // namespace afl
