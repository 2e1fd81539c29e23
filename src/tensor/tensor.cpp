#include "tensor/tensor.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace afl {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> values) {
  if (shape_numel(shape) != values.size()) {
    throw std::invalid_argument("Tensor::from_vector: shape/value size mismatch");
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  return t;
}

std::size_t Tensor::offset(const std::vector<std::size_t>& idx) const {
  assert(idx.size() == shape_.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] < shape_[i]);
    off = off * shape_[i] + idx[i];
  }
  return off;
}

float& Tensor::at(const std::vector<std::size_t>& idx) { return data_[offset(idx)]; }
float Tensor::at(const std::vector<std::size_t>& idx) const { return data_[offset(idx)]; }

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

Tensor Tensor::prefix_slice(const Shape& new_shape) const {
  if (new_shape.size() != shape_.size()) {
    throw std::invalid_argument("prefix_slice: rank mismatch");
  }
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (new_shape[i] > shape_[i]) {
      throw std::invalid_argument("prefix_slice: dim " + std::to_string(i) +
                                  " grows (" + shape_to_string(new_shape) + " from " +
                                  shape_to_string(shape_) + ")");
    }
  }
  Tensor out(new_shape);
  if (out.numel() == 0) return out;
  // Copy the prefix box with an odometer over the leading dims; the innermost
  // dim is copied as a contiguous run.
  const std::size_t rank = shape_.size();
  if (rank == 0) return out;
  const std::size_t inner = new_shape[rank - 1];
  std::vector<std::size_t> idx(rank, 0);
  std::size_t dst = 0;
  for (;;) {
    const std::size_t src = offset(idx);
    for (std::size_t i = 0; i < inner; ++i) out.data_[dst + i] = data_[src + i];
    dst += inner;
    // Increment the odometer over dims [0, rank-1).
    std::size_t d = rank - 1;
    for (;;) {
      if (d == 0) return out;
      --d;
      if (++idx[d] < new_shape[d]) break;
      idx[d] = 0;
    }
  }
}

void Tensor::assign_prefix(const Tensor& src) {
  if (src.rank() != rank()) throw std::invalid_argument("assign_prefix: rank mismatch");
  for (std::size_t i = 0; i < rank(); ++i) {
    if (src.shape_[i] > shape_[i]) {
      throw std::invalid_argument("assign_prefix: source exceeds destination");
    }
  }
  if (src.numel() == 0) return;
  const std::size_t r = rank();
  const std::size_t inner = src.shape_[r - 1];
  std::vector<std::size_t> idx(r, 0);
  std::size_t s = 0;
  for (;;) {
    const std::size_t dst = offset(idx);
    for (std::size_t i = 0; i < inner; ++i) data_[dst + i] = src.data_[s + i];
    s += inner;
    std::size_t d = r - 1;
    for (;;) {
      if (d == 0) return;
      --d;
      if (++idx[d] < src.shape_[d]) break;
      idx[d] = 0;
    }
  }
}

void Tensor::reshape(Shape new_shape) {
  if (shape_numel(new_shape) != data_.size()) {
    throw std::invalid_argument("reshape: element count changes");
  }
  shape_ = std::move(new_shape);
}

std::string Tensor::to_string(std::size_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  for (std::size_t i = 0; i < data_.size() && i < max_elems; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (data_.size() > max_elems) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace afl
