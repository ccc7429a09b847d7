// Solver resilience layer for the BePI query path.
//
// The paper's query phase (Algorithm 4) hinges on one iterative solve over
// the Schur complement S. In a serving system that solve must never abort
// or silently hand back an unconverged vector: GMRES can stagnate, and
// NaN/Inf can propagate from corrupted inputs. The query therefore runs a
// three-stage degradation chain:
//
//   1. primary GMRES hop  (the paper's method: ILU(0)+GMRES, or
//                          Jacobi+GMRES when the ILU(0) factors do not
//                          exist — BePI-B/S, or an ILU(0) breakdown at
//                          preprocessing time)
//   2. power iteration    (global, on the original system: always
//                          converges for RWR because the iteration matrix
//                          (1-c) Ã^T has spectral radius < 1)
//   3. Monte-Carlo walks  (engine/mc, armed via BepiSolver::
//                          AttachMcFallback: failure-INDEPENDENT — walks
//                          the raw graph, sharing none of the
//                          preprocessed factors stages 1-2 consume, and
//                          answers with an explicit confidence bound
//                          instead of a residual)
//
// A second Krylov hop after a failed primary one rescues nothing power
// iteration would not: the Schur diagonal is ≈ 1, so Jacobi+GMRES reruns
// nearly the same GMRES, and an injected or real GMRES failure hits both.
//
// Every attempt is recorded in a QueryReport so callers can observe which
// stages ran and why — no recoverable solver failure reaches std::abort.
#ifndef BEPI_CORE_RESILIENT_HPP_
#define BEPI_CORE_RESILIENT_HPP_

#include <optional>

#include "core/decomposition.hpp"
#include "core/rwr.hpp"
#include "solver/ilu0.hpp"

namespace bepi {

struct GmresWorkspace;

struct ResilientSolveOptions {
  real_t tol = 1e-9;
  index_t max_iters = 10000;
  index_t gmres_restart = 100;
  /// Optional reusable GMRES scratch (see solver/gmres.hpp); not owned,
  /// may be null. One workspace per concurrent solve.
  GmresWorkspace* gmres_workspace = nullptr;
  /// Cooperative cancellation, forwarded into every stage (GMRES restart
  /// cycles, power iterations). When the token expires the chain stops
  /// degrading: the interrupted stage's best iterate is returned with the
  /// attempt recorded as kCancelled. May be null.
  const CancelToken* cancel = nullptr;
  /// Request id of the serve request driving this solve (see
  /// server/protocol.hpp); attached to flight-recorder stage-hop events
  /// and stage trace spans. May be null outside the serve path.
  const char* request_id = nullptr;
  /// Initial iterate for the primary GMRES hop (may be null = start from
  /// zero). The MC warm start (QueryControl::warm_start_mc) lands here; a
  /// nonzero guess changes the iterate sequence, so the default path
  /// never sets it. Not owned; must outlive the solve.
  const Vector* x0 = nullptr;
};

/// The primary hop's preconditioner and stage name: the ILU(0) factors
/// when they exist, else Jacobi over the Schur diagonal. The scalar and
/// the blocked (QueryMulti) query paths both choose here, so a coalesced
/// column and its solo re-solve always run the same hop.
class PrimaryPreconditioner {
 public:
  /// `ilu` may be null. `schur` must outlive this object.
  PrimaryPreconditioner(const CsrMatrix& schur, const Ilu0* ilu);

  const Preconditioner& get() const;
  /// "ilu0+gmres" or "jacobi+gmres".
  const char* stage() const;

 private:
  const Ilu0* ilu_;
  std::optional<JacobiPreconditioner> jacobi_;
};

/// Stage 1: GMRES over S x = b (`op` applies S) with the primary
/// preconditioner, appending its SolveAttempt to `report`. Returns the
/// converged solution; when options.cancel expires mid-solve, the best
/// iterate as an ok Result with report->final_outcome == kCancelled (the
/// caller decides whether the partial vector is usable). Any other
/// failure is kNotConverged: the caller falls back to GlobalPowerFallback.
Result<Vector> PrimarySchurSolve(const LinearOperator& op,
                                 const PrimaryPreconditioner& precond,
                                 const Vector& b,
                                 const ResilientSolveOptions& options,
                                 QueryReport* report);

/// Stage 2: power iteration r <- (I - H) r + cq on the full reordered
/// system, assembled blockwise from the decomposition. `cq` is the scaled
/// start vector c*q in reordered ids (length dec.n); the result is the
/// full reordered RWR vector. Appends its SolveAttempt to `report`.
/// Fails only on budget exhaustion (kNotConverged).
Result<Vector> GlobalPowerFallback(const HubSpokeDecomposition& dec,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   QueryReport* report);

/// Publishes one finished stage: bumps `solver.attempts.<stage>`, logs a
/// flight-recorder stage hop under `request_id` (may be null) and, when
/// `report` is non-null, appends the attempt and sets final_outcome.
void RecordAttempt(const SolveAttempt& attempt, const char* request_id,
                   QueryReport* report);

}  // namespace bepi

#endif  // BEPI_CORE_RESILIENT_HPP_
