// Monte-Carlo random-walk RWR engine: the failure-independent terminal
// stage of the degradation chain and a cross-check oracle for every
// linear-algebra path.
//
// Every linear-algebra stage of the chain (core/resilient.hpp) consumes
// the same preprocessed artifacts — the reordered block factors, the Schur
// complement, the bound CSR kernels — so one corrupted model section or
// latent kernel bug can defeat all of them at once. This engine shares
// none of that: it estimates r = c * sum_t (1-c)^t (Ã^T)^t q by simulating
// restart-terminated walks directly on the raw adjacency structure
// (PowerWalk/ThunderRW, see PAPERS.md), which makes it
//
//   * a last-resort fallback: when every LA stage is broken, queries still
//     complete with an explicit confidence bound instead of failing, and
//   * an independent oracle: `bepi_cli crosscheck` fails loudly when an
//     exact solve falls outside the MC confidence interval.
//
// Estimator (end-point): a walk starts at X_0 ~ q; at each visited node it
// terminates with probability c (depositing one count at that node) and
// otherwise moves to a random out-neighbor, weight-proportionally. A walk
// that reaches a deadend without restarting dies and deposits nothing —
// exactly the leaked mass of the paper's substochastic deadend treatment
// (zero rows in Ã), so r̂(v) = count(v) / N is unbiased for Equation (2)'s
// solution. Each per-coordinate deposit is a Bernoulli(r(v)) trial, which
// is what makes the Hoeffding/Bernstein bounds below honest.
//
// Determinism: walk w draws from its own RNG stream seeded by a SplitMix64
// mix of (seed, w), and walk deposits are integer counts merged with
// relaxed atomic adds — addition of integers is exact and order-free, so
// results are bit-identical at any --threads for a fixed (seed, walks).
//
// Execution: walks run in fixed-size batches (McOptions::batch_size),
// step-interleaved ThunderRW-style — each loop advances every live walk in
// the batch by one step and prefetches the next adjacency row, hiding the
// random-access latency that dominates walk simulation. The CancelToken is
// polled at batch boundaries only, so an unexpired token never perturbs
// the numerics.
#ifndef BEPI_ENGINE_MC_MC_HPP_
#define BEPI_ENGINE_MC_MC_HPP_

#include <cstdint>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "graph/graph.hpp"
#include "solver/outcome.hpp"
#include "sparse/dense.hpp"

namespace bepi {

struct McOptions {
  /// Restart probability c (must match the solver being cross-checked).
  real_t restart_prob = 0.05;
  /// Walk budget: the hard cap on simulated walks per estimate.
  std::uint64_t walks = 100'000;
  /// Anytime target: keep walking until the per-coordinate Hoeffding
  /// half-width drops to this value (or the budget/deadline ends the run
  /// first). 0 runs the whole budget.
  real_t target_eps = 0.0;
  /// Confidence: every reported bound holds with probability >= 1-delta.
  double delta = 0.01;
  /// Walks advanced together per step-interleaved batch (also the
  /// cancellation-poll granularity).
  index_t batch_size = 256;
  /// Safety cap on steps per walk; 0 derives a cap from restart_prob with
  /// truncation bias below 1e-40 (see mc.cpp). Walks hitting the cap die.
  index_t max_steps = 0;
  /// Base seed of the per-walk SplitMix64 streams.
  std::uint64_t seed = 20170514;
  /// Cooperative cancellation, polled at batch boundaries. May be null.
  const CancelToken* cancel = nullptr;
  /// On expiry: true returns the estimate from the walks completed so far
  /// (outcome kCancelled, honest bound for that N); false returns the
  /// token's Status and no estimate.
  bool allow_partial = true;
};

/// An MC estimate plus everything needed to judge it: the walk count it
/// is based on and its confidence half-widths at level 1-delta.
struct McEstimate {
  /// r̂ in original node ids (length = num nodes). Entries sum to <= 1;
  /// the deficit is the deadend-leaked mass.
  Vector scores;
  std::uint64_t walks_completed = 0;
  std::uint64_t walks_requested = 0;
  std::uint64_t total_steps = 0;
  /// Per-coordinate Hoeffding half-width sqrt(ln(2/delta) / 2N): holds for
  /// any single fixed coordinate. The anytime loop drives this to
  /// target_eps.
  real_t hoeffding_eps = 0.0;
  /// Sup-norm half-width sqrt(ln(2n/delta) / 2N) (union bound over all n
  /// coordinates): |r̂ - r|_inf <= uniform_eps with prob >= 1-delta. This
  /// is the bound a query reports as its residual/error field.
  real_t uniform_eps = 0.0;
  double delta = 0.01;
  /// kConverged: target_eps reached (or full budget run with no target).
  /// kBudgetExhausted: walk cap hit before target_eps. kCancelled:
  /// deadline/cancel stopped the run early (allow_partial path).
  SolveOutcome outcome = SolveOutcome::kConverged;
  double seconds = 0.0;

  /// Empirical-Bernstein half-width for coordinate v, union-bounded over
  /// all n coordinates — much tighter than uniform_eps for the small
  /// probabilities typical of RWR scores. Valid simultaneously for all v
  /// with probability >= 1-delta.
  real_t BernsteinBound(index_t v) const;
  /// The per-coordinate bound crosscheck verifies against:
  /// min(uniform_eps, BernsteinBound(v)).
  real_t CheckBound(index_t v) const;
};

/// Simulates restart-terminated walks on a Graph. Construction snapshots
/// nothing mutable — the engine only reads the graph's CSR arrays (plus a
/// per-edge cumulative-weight table it builds once for weighted graphs) —
/// so one engine serves any number of concurrent estimates. The graph
/// must outlive the engine.
class McWalkEngine {
 public:
  explicit McWalkEngine(const Graph& g);

  index_t num_nodes() const;

  /// RWR from a single seed node (q = e_seed).
  Result<McEstimate> EstimateSeed(index_t seed, const McOptions& options) const;

  /// Personalized PageRank: q must be non-negative with positive sum; it
  /// is normalized internally. Walks sample their start node from q.
  Result<McEstimate> EstimateVector(const Vector& q,
                                    const McOptions& options) const;

  /// Per-coordinate Hoeffding half-width after `walks` walks.
  static real_t HoeffdingEps(std::uint64_t walks, double delta);
  /// Walks needed to drive HoeffdingEps to `eps`.
  static std::uint64_t WalksForEps(real_t eps, double delta);

 private:
  Result<McEstimate> Run(index_t seed, const Vector* start_cdf,
                         const McOptions& options) const;

  const Graph& graph_;
  bool weighted_ = false;
  /// Weighted graphs only: within-row prefix sums of edge weights
  /// (aligned with the CSR col_idx array), so neighbor sampling is one
  /// binary search per step.
  std::vector<real_t> row_cdf_;
};

}  // namespace bepi

#endif  // BEPI_ENGINE_MC_MC_HPP_
