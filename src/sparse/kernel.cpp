#include "sparse/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace bepi {
namespace {

/// Every stored index on the compact path must fit an int32; bounding
/// rows/cols/nnz by INT32_MAX bounds them all (row_ptr entries by nnz,
/// column indices by cols - 1).
constexpr index_t kCompactLimit = 2147483647;  // INT32_MAX

/// Same accounting as CsrMatrix's CountSpmv: kernel-layer SpMVs feed the
/// spmv.calls/spmv.flops counters the query telemetry is built on.
inline void CountSpmv(index_t nnz) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmv_calls, "spmv.calls");
  BEPI_METRIC_COUNTER(spmv_flops, "spmv.flops");
  spmv_calls->Increment();
  spmv_flops->Increment(2 * static_cast<std::uint64_t>(nnz));
}

/// Streamed bytes of a plain (non-fused) kernel SpMV under the same
/// traffic model as CountFused/CountSpmm, so scalar and panel solves are
/// comparable on one axis (bench_batch_serve plots exactly this). Fused
/// ops count under spmv.fused.bytes instead — the three byte counters
/// partition the kernel-layer matrix traffic, never overlapping.
inline void CountSpmvBytes(index_t rows, index_t cols, index_t nnz,
                           bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmv_bytes, "spmv.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  spmv_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) + static_cast<std::uint64_t>(rows)) *
          sizeof(real_t));
}

/// Fused-kernel tallies: calls, useful FLOPs and streamed bytes under a
/// simple traffic model (index + value arrays once, the dense operand
/// vectors once). The bytes counter is what makes the compact path's
/// bandwidth saving visible in --metrics-out.
inline void CountFused(index_t rows, index_t cols, index_t nnz,
                       std::uint64_t extra_flops, std::uint64_t vec_reads,
                       bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(fused_calls, "spmv.fused.calls");
  BEPI_METRIC_COUNTER(fused_flops, "spmv.fused.flops");
  BEPI_METRIC_COUNTER(fused_bytes, "spmv.fused.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  fused_calls->Increment();
  fused_flops->Increment(2 * static_cast<std::uint64_t>(nnz) + extra_flops);
  fused_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) +
       vec_reads * static_cast<std::uint64_t>(rows)) *
          sizeof(real_t));
}

/// Panel-kernel tallies, mirroring CountSpmv/CountFused: one SpMM call
/// streams the matrix once for k right-hand sides, so the per-column
/// byte cost visible in spmm.bytes falls as k grows (the amortization
/// the serve batcher exists to exploit). The traffic model charges the
/// index/value arrays once and the dense panels once each.
inline void CountSpmm(index_t rows, index_t cols, index_t nnz, index_t k,
                      bool compact) {
  if (!MetricsEnabled()) return;
  BEPI_METRIC_COUNTER(spmm_calls, "spmm.calls");
  BEPI_METRIC_COUNTER(spmm_cols, "spmm.columns");
  BEPI_METRIC_COUNTER(spmm_flops, "spmm.flops");
  BEPI_METRIC_COUNTER(spmm_bytes, "spmm.bytes");
  const std::uint64_t idx = compact ? 4 : 8;
  spmm_calls->Increment();
  spmm_cols->Increment(static_cast<std::uint64_t>(k));
  spmm_flops->Increment(2 * static_cast<std::uint64_t>(nnz) *
                        static_cast<std::uint64_t>(k));
  spmm_bytes->Increment(
      static_cast<std::uint64_t>(nnz) * (idx + sizeof(real_t)) +
      static_cast<std::uint64_t>(rows + 1) * idx +
      (static_cast<std::uint64_t>(cols) + static_cast<std::uint64_t>(rows)) *
          static_cast<std::uint64_t>(k) * sizeof(real_t));
}

/// Panel columns are processed in register-friendly groups of this width;
/// the grouping only affects which columns share a pass over a row, never
/// the per-column accumulation order, so it is invisible to results.
constexpr index_t kSpmmColChunk = 16;

/// The shared inner row loop: one dot product per output row. Templated
/// over the index width so the compact and wide paths compile to the same
/// instruction sequence modulo load width — and therefore produce
/// identical floating-point results.
template <typename P, typename I>
inline real_t RowDot(const P* row_ptr, const I* col_idx, const real_t* values,
                     const real_t* x, index_t r) {
  real_t sum = 0.0;
  const std::size_t end = static_cast<std::size_t>(row_ptr[r + 1]);
  for (std::size_t p = static_cast<std::size_t>(row_ptr[r]); p < end; ++p) {
    sum += values[p] * x[static_cast<std::size_t>(col_idx[p])];
  }
  return sum;
}

template <typename P, typename I>
void SpmvInto(const P* row_ptr, const I* col_idx, const real_t* values,
              index_t rows, const real_t* x, real_t* y) {
  for (index_t r = 0; r < rows; ++r) {
    y[static_cast<std::size_t>(r)] = RowDot(row_ptr, col_idx, values, x, r);
  }
}

template <typename P, typename I>
void SpmvAdd(const P* row_ptr, const I* col_idx, const real_t* values,
             index_t rows, real_t alpha, const real_t* x, real_t* y) {
  for (index_t r = 0; r < rows; ++r) {
    y[static_cast<std::size_t>(r)] +=
        alpha * RowDot(row_ptr, col_idx, values, x, r);
  }
}

template <typename P, typename I>
void SpmvResidual(const P* row_ptr, const I* col_idx, const real_t* values,
                  index_t rows, const real_t* x, const real_t* b, real_t* y) {
  for (index_t r = 0; r < rows; ++r) {
    y[static_cast<std::size_t>(r)] =
        b[static_cast<std::size_t>(r)] - RowDot(row_ptr, col_idx, values, x, r);
  }
}

/// SpMV with an embedded dot against `d`. ChunkedPairwiseSum over the row
/// range is the very chunking and combine order Dot uses over the element
/// range, so the result is bitwise the unfused SpMV-then-Dot value.
template <typename P, typename I>
real_t SpmvDot(const P* row_ptr, const I* col_idx, const real_t* values,
               index_t rows, const real_t* x, const real_t* d, real_t* y) {
  return ChunkedPairwiseSum(rows, [&](index_t rb, index_t re) {
    real_t partial = 0.0;
    for (index_t r = rb; r < re; ++r) {
      const real_t yr = RowDot(row_ptr, col_idx, values, x, r);
      y[static_cast<std::size_t>(r)] = yr;
      partial += yr * d[static_cast<std::size_t>(r)];
    }
    return partial;
  });
}

/// Row-major panel SpMM: for each row, each column j of the chunk keeps
/// its own accumulator and adds values[p] * x[col_idx[p]*k + j] in p
/// order — the exact addition sequence RowDot performs for that column —
/// before the single store (SpmmInto) or fused alpha-add (SpmmAdd).
template <typename P, typename I>
void SpmmInto(const P* row_ptr, const I* col_idx, const real_t* values,
              index_t rows, const real_t* x, index_t k, real_t* y) {
  real_t acc[kSpmmColChunk];
  for (index_t r = 0; r < rows; ++r) {
    real_t* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
    const std::size_t p0 = static_cast<std::size_t>(row_ptr[r]);
    const std::size_t p1 = static_cast<std::size_t>(row_ptr[r + 1]);
    for (index_t jb = 0; jb < k; jb += kSpmmColChunk) {
      const index_t jw = std::min<index_t>(kSpmmColChunk, k - jb);
      for (index_t j = 0; j < jw; ++j) acc[j] = 0.0;
      for (std::size_t p = p0; p < p1; ++p) {
        const real_t v = values[p];
        const real_t* xc = x +
                           static_cast<std::size_t>(col_idx[p]) *
                               static_cast<std::size_t>(k) +
                           static_cast<std::size_t>(jb);
        for (index_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
      }
      for (index_t j = 0; j < jw; ++j) yr[jb + j] = acc[j];
    }
  }
}

template <typename P, typename I>
void SpmmAdd(const P* row_ptr, const I* col_idx, const real_t* values,
             index_t rows, real_t alpha, const real_t* x, index_t k,
             real_t* y) {
  real_t acc[kSpmmColChunk];
  for (index_t r = 0; r < rows; ++r) {
    real_t* yr = y + static_cast<std::size_t>(r) * static_cast<std::size_t>(k);
    const std::size_t p0 = static_cast<std::size_t>(row_ptr[r]);
    const std::size_t p1 = static_cast<std::size_t>(row_ptr[r + 1]);
    for (index_t jb = 0; jb < k; jb += kSpmmColChunk) {
      const index_t jw = std::min<index_t>(kSpmmColChunk, k - jb);
      for (index_t j = 0; j < jw; ++j) acc[j] = 0.0;
      for (std::size_t p = p0; p < p1; ++p) {
        const real_t v = values[p];
        const real_t* xc = x +
                           static_cast<std::size_t>(col_idx[p]) *
                               static_cast<std::size_t>(k) +
                           static_cast<std::size_t>(jb);
        for (index_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
      }
      for (index_t j = 0; j < jw; ++j) yr[jb + j] += alpha * acc[j];
    }
  }
}

std::atomic<KernelPath>& GlobalKernelPathStorage() {
  static std::atomic<KernelPath> path{[] {
    const char* env = std::getenv("BEPI_KERNEL");
    if (env == nullptr || *env == '\0') return KernelPath::kAuto;
    Result<KernelPath> parsed = ParseKernelPath(env);
    if (!parsed.ok()) {
      BEPI_LOG(Warning) << "ignoring BEPI_KERNEL='" << env
                        << "' (want auto|wide|compact)";
      return KernelPath::kAuto;
    }
    return *parsed;
  }()};
  return path;
}

}  // namespace

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kAuto:
      return "auto";
    case KernelPath::kWide:
      return "wide";
    case KernelPath::kCompact:
      return "compact";
  }
  return "?";
}

Result<KernelPath> ParseKernelPath(const std::string& name) {
  if (name == "auto") return KernelPath::kAuto;
  if (name == "wide") return KernelPath::kWide;
  if (name == "compact") return KernelPath::kCompact;
  return Status::InvalidArgument("unknown kernel path '" + name +
                                 "' (want auto|wide|compact)");
}

KernelPath GlobalKernelPath() {
  return GlobalKernelPathStorage().load(std::memory_order_relaxed);
}

void SetGlobalKernelPath(KernelPath path) {
  GlobalKernelPathStorage().store(path, std::memory_order_relaxed);
}

bool FitsCompactDims(index_t rows, index_t cols, index_t nnz) {
  return rows >= 0 && cols >= 0 && nnz >= 0 && rows <= kCompactLimit &&
         cols <= kCompactLimit && nnz <= kCompactLimit;
}

bool FitsCompact(const CsrMatrix& m) {
  return FitsCompactDims(m.rows(), m.cols(), m.nnz());
}

KernelCsr KernelCsr::Bind(const CsrMatrix& m, KernelPath requested) {
  KernelCsr k;
  k.rows_ = m.rows();
  k.cols_ = m.cols();
  k.nnz_ = m.nnz();
  k.values_ = m.values().data();
  k.compact_ = requested != KernelPath::kWide && FitsCompact(m);
  if (k.compact_) {
    k.row_ptr32_.assign(m.row_ptr().begin(), m.row_ptr().end());
    k.col_idx32_.assign(m.col_idx().begin(), m.col_idx().end());
  } else {
    k.row_ptr64_ = m.row_ptr().data();
    k.col_idx64_ = m.col_idx().data();
  }
  return k;
}

Vector KernelCsr::Multiply(const Vector& x) const {
  Vector y;
  MultiplyInto(x, &y);
  return y;
}

void KernelCsr::MultiplyInto(const Vector& x, Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  CountSpmv(nnz_);
  CountSpmvBytes(rows_, cols_, nnz_, compact_);
  y->resize(static_cast<std::size_t>(rows_));
  if (compact_) {
    SpmvInto(row_ptr32_.data(), col_idx32_.data(), values_, rows_, x.data(),
             y->data());
  } else {
    SpmvInto(row_ptr64_, col_idx64_, values_, rows_, x.data(), y->data());
  }
}

void KernelCsr::MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(y->size()) == rows_);
  CountSpmv(nnz_);
  CountSpmvBytes(rows_, cols_, nnz_, compact_);
  if (compact_) {
    SpmvAdd(row_ptr32_.data(), col_idx32_.data(), values_, rows_, alpha,
            x.data(), y->data());
  } else {
    SpmvAdd(row_ptr64_, col_idx64_, values_, rows_, alpha, x.data(), y->data());
  }
}

void KernelCsr::ResidualInto(const Vector& x, const Vector& b,
                             Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(b.size()) == rows_);
  CountSpmv(nnz_);
  CountFused(rows_, cols_, nnz_, /*extra_flops=*/
             static_cast<std::uint64_t>(rows_), /*vec_reads=*/2, compact_);
  y->resize(static_cast<std::size_t>(rows_));
  if (compact_) {
    SpmvResidual(row_ptr32_.data(), col_idx32_.data(), values_, rows_,
                 x.data(), b.data(), y->data());
  } else {
    SpmvResidual(row_ptr64_, col_idx64_, values_, rows_, x.data(), b.data(),
                 y->data());
  }
}

real_t KernelCsr::MultiplyDot(const Vector& x, const Vector& d,
                              Vector* y) const {
  BEPI_CHECK(static_cast<index_t>(x.size()) == cols_);
  BEPI_CHECK(static_cast<index_t>(d.size()) == rows_);
  CountSpmv(nnz_);
  CountFused(rows_, cols_, nnz_, /*extra_flops=*/
             2 * static_cast<std::uint64_t>(rows_), /*vec_reads=*/2,
             compact_);
  y->resize(static_cast<std::size_t>(rows_));
  if (compact_) {
    return SpmvDot(row_ptr32_.data(), col_idx32_.data(), values_, rows_,
                   x.data(), d.data(), y->data());
  }
  return SpmvDot(row_ptr64_, col_idx64_, values_, rows_, x.data(), d.data(),
                 y->data());
}

void KernelCsr::MultiplyMulti(const real_t* x, index_t k, real_t* y) const {
  BEPI_CHECK(k >= 1);
  CountSpmm(rows_, cols_, nnz_, k, compact_);
  if (compact_) {
    SpmmInto(row_ptr32_.data(), col_idx32_.data(), values_, rows_, x, k, y);
  } else {
    SpmmInto(row_ptr64_, col_idx64_, values_, rows_, x, k, y);
  }
}

void KernelCsr::MultiplyAddMulti(real_t alpha, const real_t* x, index_t k,
                                 real_t* y) const {
  BEPI_CHECK(k >= 1);
  CountSpmm(rows_, cols_, nnz_, k, compact_);
  if (compact_) {
    SpmmAdd(row_ptr32_.data(), col_idx32_.data(), values_, rows_, alpha, x, k,
            y);
  } else {
    SpmmAdd(row_ptr64_, col_idx64_, values_, rows_, alpha, x, k, y);
  }
}

std::uint64_t KernelCsr::ByteSize() const {
  return static_cast<std::uint64_t>(row_ptr32_.size()) * sizeof(std::uint32_t) +
         static_cast<std::uint64_t>(col_idx32_.size()) * sizeof(std::uint32_t);
}

}  // namespace bepi
