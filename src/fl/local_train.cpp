#include "fl/local_train.hpp"

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace afl {
namespace {

obs::Histogram& train_hist() {
  static obs::Histogram& h = obs::metrics().histogram("afl.fl.local_train.seconds");
  return h;
}

obs::Counter& train_samples() {
  static obs::Counter& c = obs::metrics().counter("afl.fl.local_train.samples");
  return c;
}

/// One multi-exit step (ScaleFL): every exit optimizes cross-entropy, and
/// each non-final exit additionally distills from the final exit's logits.
/// Returns the step's weighted loss.
double multi_exit_step(Model& model, const Batch& batch, const LocalTrainConfig& cfg) {
  std::vector<Tensor> outs = model.forward_all_exits(batch.images, /*train=*/true);
  // Deeper exits carry more CE weight (w_e ~ e+1, normalized), as in ScaleFL:
  // the final classifier stays the primary objective while early exits still
  // receive enough signal to serve as submodel classifiers.
  double weight_norm = 0.0;
  for (std::size_t e = 0; e < outs.size(); ++e) weight_norm += static_cast<double>(e + 1);
  std::vector<Tensor> grads(outs.size());
  double total_loss = 0.0;
  const Tensor& final_logits = outs.back();
  for (std::size_t e = 0; e < outs.size(); ++e) {
    const double head_weight = static_cast<double>(e + 1) / weight_norm;
    LossResult ce = softmax_cross_entropy(outs[e], batch.labels);
    total_loss += head_weight * ce.loss;
    scale(ce.grad, static_cast<float>(head_weight));
    Tensor g = std::move(ce.grad);
    if (e + 1 < outs.size() && cfg.distill_weight > 0.0) {
      // Self-distillation: the final exit teaches the earlier ones
      // (teacher logits treated as constants).
      LossResult kd = distillation_kl(outs[e], final_logits, cfg.distill_temperature);
      total_loss += cfg.distill_weight * head_weight * kd.loss;
      axpy(static_cast<float>(cfg.distill_weight * head_weight), kd.grad, g);
    }
    grads[e] = std::move(g);
  }
  model.backward_multi(grads);
  return total_loss;
}

}  // namespace

LocalTrainResult local_train(Model& model, const Dataset& data,
                             const LocalTrainConfig& cfg, Rng& rng) {
  obs::prof::ProfileSpan timer("fl.local_train", &train_hist());
  obs::TraceSpan span("local_train");
  LocalTrainResult res;
  if (data.empty()) return res;
  SGD opt(cfg.lr, cfg.momentum);
  double loss_sum = 0.0;
  std::size_t steps = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (const auto& idx : data.shuffled_batches(cfg.batch_size, rng)) {
      const Batch batch = data.make_batch(idx);
      model.zero_grads();
      if (model.num_exits() == 0) {
        const Tensor logits = model.forward(batch.images, /*train=*/true);
        const LossResult lr = softmax_cross_entropy(logits, batch.labels);
        model.backward(lr.grad);
        loss_sum += lr.loss;
      } else {
        loss_sum += multi_exit_step(model, batch, cfg);
      }
      opt.step(model.params());
      ++steps;
      res.samples_seen += batch.size();
    }
  }
  res.mean_loss = steps ? loss_sum / static_cast<double>(steps) : 0.0;
  res.seconds = timer.seconds();
  train_samples().inc(res.samples_seen);
  span.field("samples", static_cast<std::uint64_t>(res.samples_seen))
      .field("epochs", static_cast<std::uint64_t>(cfg.epochs));
  if (model.num_exits() > 0) {
    span.field("exits", static_cast<std::uint64_t>(model.num_exits()));
  }
  span.field("mean_loss", res.mean_loss);
  return res;
}

}  // namespace afl
