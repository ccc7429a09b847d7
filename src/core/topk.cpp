#include "core/topk.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bepi {
namespace {

/// Rounding slack on every derived bound: the bound arithmetic itself and
/// the kernel dot products it must dominate each round over a handful of
/// operations, so a relative pad of 1e-6 (plus a denormal-proof absolute
/// pad) keeps the bounds honest — true scores live many orders of
/// magnitude above 1e-280.
constexpr real_t kRelSlack = 1e-6;
constexpr real_t kAbsSlack = 1e-280;

inline real_t Pad(real_t v) { return v * (1.0 + kRelSlack) + kAbsSlack; }

/// Largest absolute row sum over rows [begin, end) of a CSR matrix (the
/// sup-norm amplification of those output coordinates).
real_t MaxAbsRowSum(const CsrMatrix& m, index_t begin, index_t end) {
  const std::vector<index_t>& row_ptr = m.row_ptr();
  const std::vector<real_t>& values = m.values();
  real_t max_sum = 0.0;
  for (index_t r = begin; r < end; ++r) {
    real_t s = 0.0;
    for (index_t p = row_ptr[static_cast<std::size_t>(r)];
         p < row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
      s += std::abs(values[static_cast<std::size_t>(p)]);
    }
    max_sum = std::max(max_sum, s);
  }
  return max_sum;
}

/// spmv.bytes traffic model for one SpMV over the whole matrix.
std::uint64_t DenseSpmvBytes(const CsrMatrix& m, std::uint64_t idx) {
  return static_cast<std::uint64_t>(m.nnz()) * (idx + sizeof(real_t)) +
         static_cast<std::uint64_t>(m.rows() + 1) * idx +
         (static_cast<std::uint64_t>(m.cols()) +
          static_cast<std::uint64_t>(m.rows())) *
             sizeof(real_t);
}

}  // namespace

const char* TopKModeName(TopKMode mode) {
  return mode == TopKMode::kEps ? "eps" : "exact";
}

TopKBoundTables BuildTopKBoundTables(const HubSpokeDecomposition& dec) {
  TopKBoundTables t;
  // A model without a block layout counts as one block spanning every
  // spoke: L1/U1 are block diagonal, hence trivially diagonal w.r.t. the
  // single block, so the bound stays valid (only looser).
  std::vector<index_t> sizes = dec.block_sizes;
  if (sizes.empty() && dec.n1 > 0) sizes.push_back(dec.n1);
  // dr1 = U1^{-1} L1^{-1} H12 dr2 stays inside each diagonal block, so the
  // amplification is the worst block's product of row-sum maxima.
  index_t begin = 0;
  for (index_t size : sizes) {
    const index_t end = begin + size;
    t.r1_coeff_max =
        std::max(t.r1_coeff_max, MaxAbsRowSum(dec.u1_inv, begin, end) *
                                     MaxAbsRowSum(dec.l1_inv, begin, end) *
                                     MaxAbsRowSum(dec.h12, begin, end));
    begin = end;
  }
  BEPI_CHECK(begin == dec.n1);
  t.a31_max = MaxAbsRowSum(dec.h31, 0, dec.h31.rows());
  t.a32_max = MaxAbsRowSum(dec.h32, 0, dec.h32.rows());
  return t;
}

real_t ScoreErrorBound(const TopKBoundTables& tables, real_t residual_norm1,
                       real_t restart_prob) {
  // ||dr2||_inf <= ||S^{-1}||_1 ||rho||_1 <= ||rho||_1 / c: S^{-1} is the
  // hub-hub block of H^{-1}, and ||H^{-1}||_1 <= sum_t (1-c)^t = 1/c
  // because the columns of (1-c) A~^T sum to at most 1-c.
  const real_t err2 = residual_norm1 / restart_prob;
  // Propagated through back-substitution: dr1 = U1^{-1} L1^{-1} H12 dr2,
  // dr3 = H31 dr1 + H32 dr2, each bounded by the absolute-row-sum tables.
  const real_t err1 = tables.r1_coeff_max * err2;
  const real_t err3 = tables.a31_max * err1 + tables.a32_max * err2;
  return Pad(std::max(err2, std::max(err1, err3)));
}

real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob) {
  return Pad(residual_norm1 / restart_prob);
}

std::uint64_t DenseBackSubstitutionBytes(const HubSpokeDecomposition& dec,
                                         bool compact_path) {
  const std::uint64_t idx = compact_path ? 4 : 8;
  return DenseSpmvBytes(dec.h12, idx) + DenseSpmvBytes(dec.l1_inv, idx) +
         DenseSpmvBytes(dec.u1_inv, idx) + DenseSpmvBytes(dec.h31, idx) +
         DenseSpmvBytes(dec.h32, idx);
}

}  // namespace bepi
