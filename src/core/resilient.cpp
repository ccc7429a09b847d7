#include "core/resilient.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/flightrec.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "solver/bicgstab.hpp"
#include "solver/gmres.hpp"
#include "solver/power.hpp"

namespace bepi {
namespace {

SolveAttempt MakeAttempt(const char* stage, const SolveStats& stats,
                         double seconds) {
  SolveAttempt attempt;
  attempt.stage = stage;
  attempt.outcome = stats.outcome;
  attempt.iterations = stats.iterations;
  attempt.residual = stats.relative_residual;
  attempt.seconds = seconds;
  return attempt;
}

void Record(QueryReport* report, const SolveAttempt& attempt,
            const char* request_id) {
  if (MetricsEnabled()) {
    // Dynamic name lookup is fine here: one registry probe per solver
    // attempt, orders of magnitude colder than the inner iterations.
    MetricsRegistry::Global()
        .GetCounter("solver.attempts." + attempt.stage)
        ->Increment();
  }
  FlightRecord(FlightEventType::kStageHop, request_id, attempt.stage.c_str(),
               static_cast<std::int64_t>(attempt.seconds * 1e9));
  if (report == nullptr) return;
  report->attempts.push_back(attempt);
  report->final_outcome = attempt.outcome;
}

/// Closes a per-hop trace span with the attempt's verdict attached.
void FinishHopSpan(TraceSpan* span, const SolveAttempt& attempt,
                   const char* request_id) {
  if (!span->active()) return;
  span->Arg("stage", attempt.stage);
  span->Arg("outcome", SolveOutcomeName(attempt.outcome));
  span->Arg("iterations", attempt.iterations);
  span->Arg("residual", attempt.residual);
  if (request_id != nullptr) span->Arg("request_id", std::string(request_id));
}

}  // namespace

ResilientSchurSolver::ResilientSchurSolver(const CsrMatrix& schur,
                                           const Ilu0* ilu,
                                           ResilientSolveOptions options,
                                           const LinearOperator* op)
    : schur_(schur), ilu_(ilu), options_(options), op_(op) {}

Result<Vector> ResilientSchurSolver::Solve(const Vector& b,
                                           QueryReport* report) const {
  if (static_cast<index_t>(b.size()) != schur_.rows()) {
    return Status::InvalidArgument("Schur rhs size mismatch");
  }
  CsrOperator fallback_op(schur_);
  const LinearOperator& op = op_ != nullptr ? *op_ : fallback_op;
  GmresOptions gm;
  gm.tol = options_.tol;
  gm.max_iters = options_.max_iters;
  gm.restart = options_.gmres_restart;
  gm.cancel = options_.cancel;

  // Hop 1: the paper's configuration, when the ILU(0) factors exist.
  if (ilu_ != nullptr) {
    TraceSpan hop_span("schur.hop");
    Timer hop_timer;
    SolveStats stats;
    BEPI_ASSIGN_OR_RETURN(Vector x, Gmres(op, b, gm, &stats, ilu_,
                                          options_.x0,
                                          options_.gmres_workspace));
    const SolveAttempt attempt =
        MakeAttempt("ilu0+gmres", stats, hop_timer.Seconds());
    FinishHopSpan(&hop_span, attempt, options_.request_id);
    Record(report, attempt, options_.request_id);
    if (stats.converged) return x;
    // A cancelled hop ends the chain: degrading further would only burn
    // more time past the deadline. Hand back the best iterate; the
    // recorded attempt carries its residual.
    if (stats.outcome == SolveOutcome::kCancelled) return x;
    if (!options_.enable_fallbacks) {
      return Status::NotConverged("Schur solve (ilu0+gmres) ended with " +
                                  std::string(SolveOutcomeName(stats.outcome)) +
                                  " and fallbacks are disabled");
    }
  }

  // Hop 2: Jacobi-preconditioned GMRES. The Schur complement of an RWR
  // system is a nonsingular M-matrix, so its diagonal is safe to invert;
  // this hop survives any ILU(0) breakdown or ILU-induced NaN.
  {
    TraceSpan hop_span("schur.hop");
    Timer hop_timer;
    SolveStats stats;
    JacobiPreconditioner jacobi(schur_);
    BEPI_ASSIGN_OR_RETURN(Vector x, Gmres(op, b, gm, &stats, &jacobi,
                                          options_.x0,
                                          options_.gmres_workspace));
    const SolveAttempt attempt =
        MakeAttempt("jacobi+gmres", stats, hop_timer.Seconds());
    FinishHopSpan(&hop_span, attempt, options_.request_id);
    Record(report, attempt, options_.request_id);
    if (stats.converged) return x;
    if (stats.outcome == SolveOutcome::kCancelled) return x;
    if (!options_.enable_fallbacks && ilu_ == nullptr) {
      return Status::NotConverged("Schur solve (jacobi+gmres) ended with " +
                                  std::string(SolveOutcomeName(stats.outcome)) +
                                  " and fallbacks are disabled");
    }
  }

  // Hop 3: unpreconditioned BiCGSTAB — a different Krylov recurrence that
  // does not share GMRES's restart-stagnation failure mode.
  {
    TraceSpan hop_span("schur.hop");
    Timer hop_timer;
    SolveStats stats;
    BicgstabOptions bi;
    bi.tol = options_.tol;
    bi.max_iters = options_.max_iters;
    bi.cancel = options_.cancel;
    BEPI_ASSIGN_OR_RETURN(Vector x, Bicgstab(op, b, bi, &stats));
    const SolveAttempt attempt =
        MakeAttempt("bicgstab", stats, hop_timer.Seconds());
    FinishHopSpan(&hop_span, attempt, options_.request_id);
    Record(report, attempt, options_.request_id);
    if (stats.converged) return x;
    if (stats.outcome == SolveOutcome::kCancelled) return x;
  }

  return Status::NotConverged(
      "all Krylov stages of the Schur degradation chain failed");
}

namespace {

/// y = (I - H) x assembled blockwise from the stored partitions of the
/// reordered H (Equation (5); H13 = H23 = 0 and H33 = I, so the deadend
/// rows of I - H are exactly -[H31 H32 0]).
class BlockComplementOperator final : public LinearOperator {
 public:
  explicit BlockComplementOperator(const HubSpokeDecomposition& dec)
      : dec_(dec) {}

  index_t size() const override { return dec_.n; }

  void Apply(const Vector& x, Vector* y) const override {
    const std::size_t n1 = static_cast<std::size_t>(dec_.n1);
    const std::size_t n2 = static_cast<std::size_t>(dec_.n2);
    const std::size_t n3 = static_cast<std::size_t>(dec_.n3);
    const Vector x1(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n1));
    const Vector x2(x.begin() + static_cast<std::ptrdiff_t>(n1),
                    x.begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    y->assign(x.size(), 0.0);
    // y1 = x1 - H11 x1 - H12 x2
    if (n1 > 0) {
      Vector y1 = x1;
      dec_.h11.MultiplyAdd(-1.0, x1, &y1);
      if (n2 > 0) dec_.h12.MultiplyAdd(-1.0, x2, &y1);
      std::copy(y1.begin(), y1.end(), y->begin());
    }
    // y2 = x2 - H21 x1 - H22 x2
    if (n2 > 0) {
      Vector y2 = x2;
      if (n1 > 0) dec_.h21.MultiplyAdd(-1.0, x1, &y2);
      dec_.h22.MultiplyAdd(-1.0, x2, &y2);
      std::copy(y2.begin(), y2.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1));
    }
    // y3 = -(H31 x1 + H32 x2)
    if (n3 > 0) {
      Vector y3(n3, 0.0);
      if (n1 > 0) dec_.h31.MultiplyAdd(-1.0, x1, &y3);
      if (n2 > 0) dec_.h32.MultiplyAdd(-1.0, x2, &y3);
      std::copy(y3.begin(), y3.end(),
                y->begin() + static_cast<std::ptrdiff_t>(n1 + n2));
    }
  }

 private:
  const HubSpokeDecomposition& dec_;
};

}  // namespace

Result<Vector> GlobalPowerFallback(const HubSpokeDecomposition& dec,
                                   const Vector& cq,
                                   const ResilientSolveOptions& options,
                                   QueryReport* report) {
  if (static_cast<index_t>(cq.size()) != dec.n) {
    return Status::InvalidArgument("power fallback rhs size mismatch");
  }
  TraceSpan fallback_span("query.power_fallback");
  Timer hop_timer;
  BlockComplementOperator g_op(dec);
  FixedPointOptions fp;
  fp.tol = options.tol;
  fp.max_iters = options.max_iters;
  fp.cancel = options.cancel;
  SolveStats stats;
  BEPI_ASSIGN_OR_RETURN(Vector r, FixedPointIteration(g_op, cq, fp, &stats));
  const SolveAttempt attempt = MakeAttempt("power", stats, hop_timer.Seconds());
  FinishHopSpan(&fallback_span, attempt, options.request_id);
  Record(report, attempt, options.request_id);
  // Mirror the Krylov chain's cancellation contract: ok Result, partial
  // iterate, report->final_outcome == kCancelled.
  if (stats.outcome == SolveOutcome::kCancelled) return r;
  if (!stats.converged) {
    return Status::NotConverged(
        "global power-iteration fallback exhausted its budget at residual " +
        std::to_string(stats.relative_residual));
  }
  return r;
}

}  // namespace bepi
