#pragma once
// Dense float tensor with row-major contiguous storage.
//
// This is the parameter/activation container for the whole library. Shapes are
// small vectors of dimensions; there is no view/stride machinery — pruning
// produces *new* tensors via prefix_slice(), which is exactly the
// W[: d*r_w][: n*r_w] operation of the paper (§3.2).

#include <cstddef>
#include <string>
#include <vector>

namespace afl {

using Shape = std::vector<std::size_t>;

std::string shape_to_string(const Shape& shape);
std::size_t shape_numel(const Shape& shape);

class Rng;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// I.i.d. N(mean, stddev^2) entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);
  static Tensor from_vector(Shape shape, std::vector<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked element access by multi-index.
  float& at(const std::vector<std::size_t>& idx);
  float at(const std::vector<std::size_t>& idx) const;

  /// Row-major flat offset of a multi-index (asserts rank match).
  std::size_t offset(const std::vector<std::size_t>& idx) const;

  void fill(float v);

  /// Returns a copy whose dimension i is truncated to new_shape[i] (prefix in
  /// every dimension). Requires new_shape[i] <= shape[i] for all i. This is
  /// the paper's width-wise pruning primitive.
  Tensor prefix_slice(const Shape& new_shape) const;

  /// Writes `src` into the prefix box of this tensor (inverse of
  /// prefix_slice); requires src.shape()[i] <= shape()[i].
  void assign_prefix(const Tensor& src);

  /// Reshape in place; the element count must be preserved.
  void reshape(Shape new_shape);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string to_string(std::size_t max_elems = 16) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace afl
