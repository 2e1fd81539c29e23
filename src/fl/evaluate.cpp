#include "fl/evaluate.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace afl {

EvalResult evaluate(const std::function<Model()>& make_model, const Dataset& data,
                    std::size_t batch_size, ThreadPool& pool) {
  if (batch_size == 0) {
    throw std::invalid_argument("evaluate: batch_size must be >= 1, got " +
                                std::to_string(batch_size));
  }
  static obs::Histogram& hist = obs::metrics().histogram("afl.fl.evaluate.seconds");
  obs::prof::ProfileSpan timer("fl.evaluate", &hist);
  obs::TraceSpan span("evaluate");
  EvalResult res;
  if (data.empty()) return res;
  struct Tally {
    std::size_t correct = 0;
    double loss_sum = 0.0;
  };
  std::vector<Tally> tallies((data.size() + batch_size - 1) / batch_size);
  pool.parallel_for(tallies.size(), [&](std::size_t chunk) {
    const std::size_t start = chunk * batch_size;
    std::vector<std::size_t> idx(std::min(batch_size, data.size() - start));
    std::iota(idx.begin(), idx.end(), start);
    const Batch batch = data.make_batch(idx);
    Model model = make_model();
    const Tensor logits = model.forward(batch.images, /*train=*/false);
    tallies[chunk] = {count_correct(logits, batch.labels),
                      softmax_cross_entropy(logits, batch.labels).loss *
                          static_cast<double>(idx.size())};
  });
  std::size_t correct = 0;
  double loss_sum = 0.0;
  for (const Tally& t : tallies) {
    correct += t.correct;
    loss_sum += t.loss_sum;
  }
  res.samples = data.size();
  res.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
  res.mean_loss = loss_sum / static_cast<double>(data.size());
  res.seconds = timer.seconds();
  span.field("samples", static_cast<std::uint64_t>(res.samples))
      .field("accuracy", res.accuracy)
      .field("mean_loss", res.mean_loss);
  return res;
}

}  // namespace afl
