// Solver resilience layer for the BePI query path.
//
// The paper's query phase (Algorithm 4) hinges on one iterative solve over
// the Schur complement S. In a serving system that solve must never abort
// or silently hand back an unconverged vector: ILU(0) can break down on
// degenerate graphs, GMRES can stagnate, and NaN/Inf can propagate from
// corrupted inputs. ResilientSchurSolver wraps the solve in a degradation
// chain — each hop trades speed for robustness, and the final hop (global
// power iteration on the original system, run by BepiSolver) is
// unconditionally convergent for RWR because the iteration matrix
// (1-c) Ã^T has spectral radius < 1:
//
//   1. ILU(0)+GMRES        (the paper's method; fastest)
//   2. Jacobi+GMRES        (survives ILU breakdown)
//   3. BiCGSTAB, no precond (different Krylov recurrence; survives GMRES
//                            stagnation)
//   4. power iteration     (always converges; slowest)
//   5. Monte-Carlo walks   (engine/mc, armed via BepiSolver::
//                           AttachMcFallback: failure-INDEPENDENT — walks
//                           the raw graph, sharing none of the
//                           preprocessed factors hops 1-4 all consume,
//                           and answers with an explicit confidence bound
//                           instead of a residual)
//
// Every attempt is recorded in a QueryReport so callers can observe which
// hops ran and why — no recoverable solver failure reaches std::abort.
#ifndef BEPI_CORE_RESILIENT_HPP_
#define BEPI_CORE_RESILIENT_HPP_

#include "core/decomposition.hpp"
#include "core/rwr.hpp"
#include "solver/ilu0.hpp"

namespace bepi {

struct GmresWorkspace;

struct ResilientSolveOptions {
  real_t tol = 1e-9;
  index_t max_iters = 10000;
  index_t gmres_restart = 100;
  /// When false the chain is disabled: only the primary configuration
  /// runs (the pre-resilience behavior, kept for ablations).
  bool enable_fallbacks = true;
  /// Optional reusable GMRES scratch (see solver/gmres.hpp); not owned,
  /// may be null. One workspace per concurrent solve.
  GmresWorkspace* gmres_workspace = nullptr;
  /// Cooperative cancellation, forwarded into every hop (GMRES restart
  /// cycles, BiCGSTAB/power iterations). When the token expires the chain
  /// stops degrading: the interrupted hop's best iterate is returned with
  /// the attempt recorded as kCancelled (see Solve). May be null.
  const CancelToken* cancel = nullptr;
  /// Request id of the serve request driving this solve (see
  /// server/protocol.hpp); attached to flight-recorder stage-hop events
  /// and hop trace spans. May be null outside the serve path.
  const char* request_id = nullptr;
  /// Initial iterate for the GMRES hops (may be null = start from zero).
  /// The MC warm start (QueryControl::warm_start_mc) lands here; a
  /// nonzero guess changes the iterate sequence, so the default path
  /// never sets it. Not owned; must outlive the solve.
  const Vector* x0 = nullptr;
};

/// Solves S x = b through the Krylov hops of the degradation chain.
/// Stateless per call: safe to construct on the stack per query. The
/// referenced matrix/preconditioner must outlive the call.
class ResilientSchurSolver {
 public:
  /// `ilu` may be null (BePI-B/S modes, or after an ILU(0) breakdown at
  /// preprocessing time); the chain then starts at the Jacobi hop. `op`,
  /// when non-null, is the operator the Krylov hops apply instead of a
  /// plain CsrOperator over `schur` — BepiSolver passes the bound
  /// KernelCsrOperator so the hops run the compact/fused kernels. It must
  /// represent exactly S (the Jacobi hop still reads `schur` directly).
  ResilientSchurSolver(const CsrMatrix& schur, const Ilu0* ilu,
                       ResilientSolveOptions options,
                       const LinearOperator* op = nullptr);

  /// Runs hops 1-3, appending one SolveAttempt per hop to `report`.
  /// Returns the first converged solution; a non-ok Status (kNotConverged)
  /// means every Krylov hop failed and the caller should fall back to
  /// global power iteration (hop 4). When options.cancel expires mid-hop
  /// the chain stops immediately and returns that hop's best iterate as an
  /// ok Result with report->final_outcome == kCancelled — the caller
  /// decides whether the partial vector (residual in the last attempt) is
  /// usable.
  Result<Vector> Solve(const Vector& b, QueryReport* report) const;

 private:
  const CsrMatrix& schur_;
  const Ilu0* ilu_;
  ResilientSolveOptions options_;
  const LinearOperator* op_;
};

/// Hop 4: power iteration r <- (I - H) r + cq on the full reordered
/// system, assembled blockwise from the decomposition. `cq` is the scaled
/// start vector c*q in reordered ids (length dec.n); the result is the
/// full reordered RWR vector. Appends its SolveAttempt to `report`.
/// Fails only on budget exhaustion (kNotConverged).
Result<Vector> GlobalPowerFallback(const HubSpokeDecomposition& dec,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   QueryReport* report);

}  // namespace bepi

#endif  // BEPI_CORE_RESILIENT_HPP_
