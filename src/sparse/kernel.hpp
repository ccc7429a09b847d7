// Bandwidth-optimized kernel layer: a compact 32-bit index view over CSR
// matrices, plus fused SpMV kernels for the GMRES restart cycle.
//
// The blanket `index_t = int64_t` (common/types.hpp) keeps the builder and
// algorithm layers simple, but every query-phase SpMV then streams twice
// the index bytes it needs on any graph whose dimensions and nnz fit in 31
// bits — which is every benchmark dataset this repo runs. KernelCsr binds
// a read-only view to an existing CsrMatrix; on the *compact* path it owns
// uint32 copies of row_ptr/col_idx (values stay shared, they are 8 bytes
// either way), cutting per-nonzero traffic from 16 to 12 bytes. On the
// *wide* path it is a zero-copy pointer wrapper, kept as the fallback for
// matrices that exceed the 31-bit limits.
//
// Contract: the wide and compact paths execute the same per-row loops in
// the same order, so their outputs are bit-identical — the selection is a
// pure bandwidth optimization and never changes results. The fused
// ResidualInto / MultiplyDot kernels replicate the chunking of the unfused
// sequences they replace (see kReduceGrain in sparse/dense.hpp), so fusing
// is equally invisible to results.
//
// Path selection: resolved once per model against BEPI_KERNEL / --kernel
// (kAuto picks compact whenever the matrices fit); see
// HubSpokeDecomposition::BindKernels (core/decomposition.hpp).
#ifndef BEPI_SPARSE_KERNEL_HPP_
#define BEPI_SPARSE_KERNEL_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace bepi {

/// Which index representation the query-phase kernels run on.
enum class KernelPath {
  kAuto,     // compact when the matrices fit, wide otherwise (default)
  kWide,     // 64-bit indices (the CsrMatrix arrays, zero-copy)
  kCompact,  // 32-bit row pointers and column indices (owned copies)
};

const char* KernelPathName(KernelPath path);

/// Parses "auto" | "wide" | "compact" (the --kernel / BEPI_KERNEL values).
Result<KernelPath> ParseKernelPath(const std::string& name);

/// Process-global requested path: initialized from BEPI_KERNEL at first
/// use (unset/invalid -> kAuto), overridden by SetGlobalKernelPath (the
/// --kernel flag). Read at model bind time, not per kernel call.
KernelPath GlobalKernelPath();
void SetGlobalKernelPath(KernelPath path);

/// Whether a matrix of these dimensions is representable on the compact
/// path: rows, cols and nnz must all be <= INT32_MAX so every stored
/// row pointer and column index fits in 32 bits. Pure arithmetic — never
/// allocates — so selection can be unit-tested at boundary sizes that
/// could not be materialized.
bool FitsCompactDims(index_t rows, index_t cols, index_t nnz);
bool FitsCompact(const CsrMatrix& m);

/// A kernel-ready view of a CsrMatrix. Non-owning with respect to the
/// source matrix: the bound CsrMatrix must outlive the view and must not
/// be structurally modified after Bind (moves of the owning object are
/// fine — vector heap buffers are stable).
class KernelCsr {
 public:
  KernelCsr() = default;

  /// Binds to `m`. Compact when `requested` is kCompact or kAuto *and*
  /// the dimensions fit (see FitsCompactDims); wide otherwise.
  static KernelCsr Bind(const CsrMatrix& m, KernelPath requested);

  bool compact() const { return compact_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return nnz_; }

  /// y = A x.
  Vector Multiply(const Vector& x) const;
  void MultiplyInto(const Vector& x, Vector* y) const;

  /// y += alpha * A x.
  void MultiplyAdd(real_t alpha, const Vector& x, Vector* y) const;

  /// Fused SpMV+axpy: y = b - A x in one pass over the matrix (the GMRES
  /// restart-cycle residual). Arithmetic per element is identical to
  /// MultiplyInto followed by the subtraction, so results are bitwise
  /// equal to the unfused sequence.
  void ResidualInto(const Vector& x, const Vector& b, Vector* y) const;

  /// Fused SpMV+dot: y = A x, returns dot(y, d) — the first Arnoldi
  /// orthogonalization coefficient without re-reading y. The embedded
  /// reduction chunks rows by kReduceGrain and combines partials exactly
  /// like Dot (sparse/dense.hpp), so the returned value is bitwise equal
  /// to MultiplyInto followed by Dot.
  real_t MultiplyDot(const Vector& x, const Vector& d, Vector* y) const;

  /// SpMM over a row-major k-RHS panel: Y = A X, where `x` holds cols()
  /// rows of k contiguous values (x[i*k + j] is column j of right-hand
  /// side i) and `y` likewise holds rows() rows of k values. The matrix
  /// is streamed ONCE for all k columns — the whole point: amortizing the
  /// bandwidth-bound index/value traffic that a per-column SpMV loop pays
  /// k times. Each output column accumulates its per-row sum in exactly
  /// the order RowDot uses, so column j of the panel is bit-identical to
  /// MultiplyInto run on column j alone, at any k.
  void MultiplyMulti(const real_t* x, index_t k, real_t* y) const;

  /// Panel form of MultiplyAdd: Y += alpha * A X. Per-column arithmetic
  /// (row sum accumulated first, then one fused y += alpha*sum) matches
  /// MultiplyAdd exactly, so each panel column stays bit-identical to the
  /// single-vector kernel.
  void MultiplyAddMulti(real_t alpha, const real_t* x, index_t k,
                        real_t* y) const;

  /// Bytes owned by this view: the uint32 sidecar arrays on the compact
  /// path, zero on the wide path (which stores only pointers).
  std::uint64_t ByteSize() const;

 private:
  index_t rows_ = 0, cols_ = 0, nnz_ = 0;
  bool compact_ = false;
  // Wide path: borrowed 64-bit arrays. Compact path: row_ptr64_/col_idx64_
  // are null and the uint32 copies below are used. values_ is always
  // borrowed from the source matrix.
  const index_t* row_ptr64_ = nullptr;
  const index_t* col_idx64_ = nullptr;
  const real_t* values_ = nullptr;
  std::vector<std::uint32_t> row_ptr32_;
  std::vector<std::uint32_t> col_idx32_;
};

}  // namespace bepi

#endif  // BEPI_SPARSE_KERNEL_HPP_
