#include "sparse/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bepi {

real_t Dot(const Vector& x, const Vector& y) {
  BEPI_CHECK(x.size() == y.size());
  return ChunkedPairwiseSum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        real_t sum = 0.0;
        for (index_t i = b; i < e; ++i) {
          sum += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        }
        return sum;
      });
}

real_t Norm2(const Vector& x) { return std::sqrt(Dot(x, x)); }

real_t Norm1(const Vector& x) {
  return ChunkedPairwiseSum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        real_t sum = 0.0;
        for (index_t i = b; i < e; ++i) {
          sum += std::fabs(x[static_cast<std::size_t>(i)]);
        }
        return sum;
      });
}

real_t NormInf(const Vector& x) {
  real_t best = 0.0;
  for (real_t v : x) best = std::max(best, std::fabs(v));
  return best;
}

void Axpy(real_t alpha, const Vector& x, Vector* y) {
  BEPI_CHECK(x.size() == y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(real_t alpha, Vector* x) {
  for (real_t& v : *x) v *= alpha;
}

real_t DistL2(const Vector& x, const Vector& y) {
  BEPI_CHECK(x.size() == y.size());
  const real_t sum = ChunkedPairwiseSum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        real_t s = 0.0;
        for (index_t i = b; i < e; ++i) {
          const real_t d = x[static_cast<std::size_t>(i)] -
                           y[static_cast<std::size_t>(i)];
          s += d * d;
        }
        return s;
      });
  return std::sqrt(sum);
}

DenseMatrix::DenseMatrix(index_t rows, index_t cols, real_t fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), fill) {
  BEPI_CHECK(rows >= 0 && cols >= 0);
}

DenseMatrix DenseMatrix::Identity(index_t n) {
  DenseMatrix m(n, n);
  for (index_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Vector DenseMatrix::Multiply(const Vector& x) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  for (index_t r = 0; r < rows_; ++r) {
    real_t sum = 0.0;
    const real_t* row = &data_[static_cast<std::size_t>(r * cols_)];
    for (index_t c = 0; c < cols_; ++c) sum += row[c] * x[static_cast<std::size_t>(c)];
    y[static_cast<std::size_t>(r)] = sum;
  }
  return y;
}

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  BEPI_CHECK(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = 0; k < cols_; ++k) {
      const real_t aik = At(i, k);
      if (aik == 0.0) continue;
      for (index_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) += aik * other.At(k, j);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

void DenseMatrix::Add(real_t alpha, const DenseMatrix& other) {
  BEPI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

real_t DenseMatrix::FrobeniusNorm() const {
  real_t sum = 0.0;
  for (real_t v : data_) sum += v * v;
  return std::sqrt(sum);
}

real_t DenseMatrix::MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  BEPI_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  real_t best = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    best = std::max(best, std::fabs(a.data_[i] - b.data_[i]));
  }
  return best;
}

}  // namespace bepi
