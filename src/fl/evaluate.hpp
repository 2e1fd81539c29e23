#pragma once
// Model evaluation on a dataset.

#include <functional>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "util/thread_pool.hpp"

namespace afl {

struct EvalResult {
  double accuracy = 0.0;
  double mean_loss = 0.0;
  std::size_t samples = 0;
  double seconds = 0.0;  // wall time spent in this evaluation call
};

/// Top-1 accuracy + mean CE loss of the model `make_model` builds, over
/// `data` cut into fixed chunks of `batch_size` samples. The chunks run on
/// `pool`, each on a model instance of its own (layers keep forward scratch
/// buffers), and their tallies are summed in chunk order: chunk boundaries
/// depend only on data.size() and batch_size, so the result is bit-identical
/// for every pool size. Throws std::invalid_argument when batch_size is 0.
EvalResult evaluate(const std::function<Model()>& make_model, const Dataset& data,
                    std::size_t batch_size, ThreadPool& pool);

}  // namespace afl
