#include "core/resilient.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/flightrec.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
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

/// Closes a per-stage trace span with the attempt's verdict attached.
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

void RecordAttempt(const SolveAttempt& attempt, const char* request_id,
                   QueryReport* report) {
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

PrimaryPreconditioner::PrimaryPreconditioner(const CsrMatrix& schur,
                                             const Ilu0* ilu)
    : ilu_(ilu) {
  // The Schur complement of an RWR system is a nonsingular M-matrix, so
  // its diagonal is safe to invert.
  if (ilu_ == nullptr) jacobi_.emplace(schur);
}

const Preconditioner& PrimaryPreconditioner::get() const {
  if (ilu_ != nullptr) return *ilu_;
  return *jacobi_;
}

const char* PrimaryPreconditioner::stage() const {
  return ilu_ != nullptr ? "ilu0+gmres" : "jacobi+gmres";
}

Result<Vector> PrimarySchurSolve(const LinearOperator& op,
                                 const PrimaryPreconditioner& precond,
                                 const Vector& b,
                                 const ResilientSolveOptions& options,
                                 QueryReport* report) {
  GmresOptions gm;
  gm.tol = options.tol;
  gm.max_iters = options.max_iters;
  gm.restart = options.gmres_restart;
  gm.cancel = options.cancel;
  TraceSpan hop_span("schur.hop");
  Timer hop_timer;
  SolveStats stats;
  BEPI_ASSIGN_OR_RETURN(Vector x, Gmres(op, b, gm, &stats, &precond.get(),
                                        options.x0, options.gmres_workspace));
  const SolveAttempt attempt =
      MakeAttempt(precond.stage(), stats, hop_timer.Seconds());
  FinishHopSpan(&hop_span, attempt, options.request_id);
  RecordAttempt(attempt, options.request_id, report);
  // A cancelled hop ends the chain: degrading further would only burn
  // more time past the deadline. Hand back the best iterate; the
  // recorded attempt carries its residual.
  if (stats.converged || stats.outcome == SolveOutcome::kCancelled) return x;
  return Status::NotConverged("Schur solve (" + attempt.stage +
                              ") ended with " +
                              SolveOutcomeName(stats.outcome));
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
  RecordAttempt(attempt, options.request_id, report);
  // Mirror the primary hop's cancellation contract: ok Result, partial
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
