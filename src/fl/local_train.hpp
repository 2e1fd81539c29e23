#pragma once
// Local SGD training on one client (Algorithm 1, LocalTrain).

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "util/rng.hpp"

namespace afl {

struct LocalTrainConfig {
  std::size_t epochs = 5;      // paper: local epoch 5
  std::size_t batch_size = 50; // paper: batch size 50
  double lr = 0.01;            // paper: SGD lr 0.01
  double momentum = 0.5;       // paper: momentum 0.5
  /// ScaleFL self-distillation: weight of the exit-to-final KD term
  /// (0 disables the distillation path entirely).
  double distill_weight = 0.0;
  double distill_temperature = 2.0;
};

struct LocalTrainResult {
  double mean_loss = 0.0;
  std::size_t samples_seen = 0;
  double seconds = 0.0;  // wall time spent in this training call
};

/// Local SGD on `data`. A model without early exits trains its final
/// classifier; a multi-exit model (ScaleFL) trains every exit with
/// cross-entropy, and each non-final exit also distills from the final
/// exit's logits (cfg.distill_weight).
LocalTrainResult local_train(Model& model, const Dataset& data,
                             const LocalTrainConfig& cfg, Rng& rng);

}  // namespace afl
