#pragma once
// In-memory labeled image dataset and batching.

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace afl {

struct Batch {
  Tensor images;            // [B, C, H, W]
  std::vector<int> labels;  // B entries
  std::size_t size() const { return labels.size(); }
};

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::size_t channels, std::size_t height, std::size_t width,
          std::size_t num_classes);

  void add(const Tensor& image /* [C, H, W] */, int label);
  void reserve(std::size_t n);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t channels() const { return channels_; }
  std::size_t height() const { return height_; }
  std::size_t width() const { return width_; }
  int label(std::size_t i) const { return labels_[i]; }

  /// Gather the given sample indices into a batch.
  Batch make_batch(const std::vector<std::size_t>& indices) const;

  /// All samples as one batch (for evaluation).
  Batch all() const;

  /// Sample indices split into shuffled mini-batches of `batch_size`
  /// (last batch may be smaller). Throws std::invalid_argument when
  /// batch_size is 0.
  std::vector<std::vector<std::size_t>> shuffled_batches(std::size_t batch_size,
                                                         Rng& rng) const;

  /// Per-class sample counts (length num_classes).
  std::vector<std::size_t> class_histogram() const;

 private:
  std::size_t channels_ = 0, height_ = 0, width_ = 0, num_classes_ = 0;
  std::vector<float> pixels_;  // concatenated [C, H, W] images
  std::vector<int> labels_;
};

}  // namespace afl
