#include "data/dataset.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace afl {

Dataset::Dataset(std::size_t channels, std::size_t height, std::size_t width,
                 std::size_t num_classes)
    : channels_(channels), height_(height), width_(width), num_classes_(num_classes) {}

void Dataset::add(const Tensor& image, int label) {
  const std::size_t expected = channels_ * height_ * width_;
  if (image.numel() != expected) {
    throw std::invalid_argument("Dataset::add: image size mismatch");
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::invalid_argument("Dataset::add: label out of range");
  }
  pixels_.insert(pixels_.end(), image.data(), image.data() + expected);
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t n) {
  pixels_.reserve(n * channels_ * height_ * width_);
  labels_.reserve(n);
}

Batch Dataset::make_batch(const std::vector<std::size_t>& indices) const {
  Batch b;
  b.images = Tensor({indices.size(), channels_, height_, width_});
  b.labels.reserve(indices.size());
  const std::size_t stride = channels_ * height_ * width_;
  float* dst = b.images.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t idx = indices[i];
    if (idx >= labels_.size()) throw std::out_of_range("make_batch: index");
    const float* src = pixels_.data() + idx * stride;
    std::copy(src, src + stride, dst + i * stride);
    b.labels.push_back(labels_[idx]);
  }
  return b;
}

Batch Dataset::all() const {
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), 0);
  return make_batch(idx);
}

std::vector<std::vector<std::size_t>> Dataset::shuffled_batches(std::size_t batch_size,
                                                                Rng& rng) const {
  if (batch_size == 0) {
    throw std::invalid_argument("Dataset::shuffled_batches: batch_size must be >= 1, got " +
                                std::to_string(batch_size));
  }
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t start = 0; start < idx.size(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, idx.size());
    out.emplace_back(idx.begin() + static_cast<long>(start),
                     idx.begin() + static_cast<long>(end));
  }
  return out;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (int y : labels_) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

}  // namespace afl
