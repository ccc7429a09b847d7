// Top-k query modes for BePI and the error bounds of the bounded-error
// (eps) mode.
//
// An exact top-k answer is the dense answer ranked: BepiSolver::QueryTopK
// solves the query (Algorithm 4) and sorts the full vector with
// core/rwr.hpp TopK. Eps mode stops the Schur solve at a user tolerance;
// the hub scores r2 are then off by dr2, which back-substitution
//
//   r1 = U1^{-1} L1^{-1} (c q1 - H12 r2),   r3 = c q3 - H31 r1 - H32 r2
//
// propagates into the spoke and deadend scores. The bound tables below
// turn ||dr2|| into a sup-norm bound on every score from absolute row sums
// of the back-substitution matrices, computed once per model.
#ifndef BEPI_CORE_TOPK_HPP_
#define BEPI_CORE_TOPK_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"

namespace bepi {

/// How a top-k query trades accuracy for work.
///   kExact: the Schur solve runs at the model's tolerance and the
///           returned scores are byte-identical (%.17g) to sorting the
///           full dense solve.
///   kEps:   the Schur solve stops at a user-supplied residual tolerance
///           and the reply carries an explicit residual-derived sup-norm
///           error bound on every score.
enum class TopKMode { kExact, kEps };

const char* TopKModeName(TopKMode mode);

/// Per-query top-k request. `k` must be in [1, n]; `eps` must be finite
/// and > 0 when mode is kEps (ignored otherwise). `exclude`, when >= 0,
/// drops that node (typically the seed, matching the serve path's
/// TopK(scores, k, seed) rendering) from the ranking.
struct TopKOptions {
  index_t k = 0;
  TopKMode mode = TopKMode::kExact;
  real_t eps = 0.0;
  index_t exclude = -1;
};

/// A ranked answer: the k highest-scoring (node, score) pairs in original
/// node ids, descending by score with ties broken by node id (the
/// comparator of core/rwr.hpp TopK).
struct TopKResult {
  std::vector<std::pair<index_t, real_t>> entries;
  /// Sup-norm bound on |returned - true| per score. 0 for an exact
  /// converged answer; otherwise the honest bound of how the answer was
  /// produced (eps truncation, partial result, power/MC terminal stage),
  /// the bound crosscheck verifies against the MC oracle.
  real_t error_bound = 0.0;
};

/// The three amplification factors of the eps error propagation, from an
/// O(nnz) pass over the back-substitution matrices. All nonnegative.
struct TopKBoundTables {
  /// max over diagonal blocks b of H11 of (max_{i in b} sum_j |U1^{-1}[i,j]|)
  /// * (max_{i in b} sum_j |L1^{-1}[i,j]|) * (max_{i in b} sum_j |H12[i,j]|):
  /// ||dr1||_inf <= r1_coeff_max * ||dr2||_inf.
  real_t r1_coeff_max = 0.0;
  /// max over deadend rows of sum_j |H31[i,j]| and of sum_j |H32[i,j]|.
  real_t a31_max = 0.0, a32_max = 0.0;
};

TopKBoundTables BuildTopKBoundTables(const HubSpokeDecomposition& dec);

/// Sup-norm bound on the full score vector's error given the 1-norm of the
/// true Schur residual rho = q2~ - S r2: ||S^{-1}||_1 <= 1/c for RWR
/// (S^{-1} is a submatrix of H^{-1} whose Neumann series sums to 1/c), so
/// ||dr2||_inf <= ||rho||_1 / c, amplified through the back-substitution
/// rows by the table coefficients. Includes rounding slack.
real_t ScoreErrorBound(const TopKBoundTables& tables, real_t residual_norm1,
                       real_t restart_prob);

/// Sup-norm per-score bound from the 1-norm of the true FULL-system
/// residual rho = c q - H r (all n rows, reordered): err = H^{-1} rho and
/// ||H^{-1}||_1 <= 1/c by the same Neumann argument, so every score is
/// within ||rho||_1 / c of the truth. Used for terminal-stage (power)
/// answers, whose scalar solver residual is not a per-score bound.
/// Includes rounding slack.
real_t FullSystemScoreBound(real_t residual_norm1, real_t restart_prob);

/// Bytes one dense back-substitution streams under the spmv.bytes traffic
/// model (every row of H12, L1^{-1}, U1^{-1}, H31, H32 plus the dense
/// operands), at 4- (compact) or 8-byte (wide) indices.
std::uint64_t DenseBackSubstitutionBytes(const HubSpokeDecomposition& dec,
                                         bool compact_path);

}  // namespace bepi

#endif  // BEPI_CORE_TOPK_HPP_
