// Dense vector/matrix helpers. Dense objects appear only in small-block
// computations (LU of H11's diagonal blocks, Bear's S^{-1}, test oracles);
// all large data lives in the sparse formats.
#ifndef BEPI_SPARSE_DENSE_HPP_
#define BEPI_SPARSE_DENSE_HPP_

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace bepi {

/// Dense column vector.
using Vector = std::vector<real_t>;

/// Fixed chunk grain of every vector sum (Dot/Norm1/Norm2/DistL2).
/// Exposed so fused kernels (sparse/kernel.hpp) can chunk their embedded
/// dot reductions identically and stay bit-identical to the unfused
/// Apply-then-Dot sequence.
constexpr index_t kReduceGrain = 4096;

/// Sums chunk_sum(b, e) over [0, n) cut into kReduceGrain-sized chunks,
/// then combines the chunk sums pairwise in a fixed order: adjacent pairs
/// level by level, an odd last sum carried up unchanged. That tree is the
/// one whose nodes are the aligned power-of-two runs of chunks, so a
/// binary-counter stack builds it in one pass without storing every chunk
/// sum: a run is merged as soon as its sibling is complete, and the
/// leftover runs (one per set bit of the chunk count) are merged right to
/// left at the end. A range of one chunk is the plain left-to-right loop.
template <typename ChunkSum>
real_t ChunkedPairwiseSum(index_t n, const ChunkSum& chunk_sum) {
  if (n <= kReduceGrain) return n > 0 ? chunk_sum(0, n) : 0.0;
  real_t runs[64];
  int depth = 0;
  index_t chunks = 0;
  for (index_t b = 0; b < n; b += kReduceGrain) {
    runs[depth++] = chunk_sum(b, n - b < kReduceGrain ? n : b + kReduceGrain);
    for (index_t done = ++chunks; (done & 1) == 0; done >>= 1) {
      --depth;
      runs[depth - 1] += runs[depth];
    }
  }
  real_t sum = runs[--depth];
  while (depth > 0) sum = runs[--depth] + sum;
  return sum;
}

/// Euclidean dot product. x and y must have the same size.
real_t Dot(const Vector& x, const Vector& y);

/// L2 norm.
real_t Norm2(const Vector& x);

/// L1 norm.
real_t Norm1(const Vector& x);

/// Max |x_i|.
real_t NormInf(const Vector& x);

/// y += alpha * x.
void Axpy(real_t alpha, const Vector& x, Vector* y);

/// x *= alpha.
void Scale(real_t alpha, Vector* x);

/// ||x - y||_2.
real_t DistL2(const Vector& x, const Vector& y);

/// Dense row-major matrix.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  DenseMatrix(index_t rows, index_t cols, real_t fill = 0.0);

  static DenseMatrix Identity(index_t n);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  real_t& At(index_t r, index_t c) {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  real_t At(index_t r, index_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  const std::vector<real_t>& data() const { return data_; }
  std::vector<real_t>& data() { return data_; }

  /// y = this * x.
  Vector Multiply(const Vector& x) const;

  /// C = this * other.
  DenseMatrix Multiply(const DenseMatrix& other) const;

  DenseMatrix Transpose() const;

  /// this += alpha * other (same shape).
  void Add(real_t alpha, const DenseMatrix& other);

  /// Frobenius norm.
  real_t FrobeniusNorm() const;

  /// Max |a_ij - b_ij|.
  static real_t MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

  std::uint64_t ByteSize() const {
    return static_cast<std::uint64_t>(data_.size()) * sizeof(real_t);
  }

 private:
  index_t rows_, cols_;
  std::vector<real_t> data_;
};

}  // namespace bepi

#endif  // BEPI_SPARSE_DENSE_HPP_
