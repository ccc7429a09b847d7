#include "core/bepi.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/check.hpp"
#include "common/fileio.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/sections.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/checkpoint.hpp"
#include "core/resilient.hpp"
#include "core/topk.hpp"
#include "engine/mc/mc.hpp"
#include "solver/block_gmres.hpp"
#include "solver/gmres.hpp"
#include "sparse/io.hpp"

namespace bepi {

const char* BepiModeName(BepiMode mode) {
  switch (mode) {
    case BepiMode::kBasic:
      return "BePI-B";
    case BepiMode::kSparsified:
      return "BePI-S";
    case BepiMode::kPreconditioned:
      return "BePI";
  }
  return "BePI-?";
}

BepiSolver::BepiSolver(BepiOptions options) : options_(options) {
  effective_hub_ratio_ = options_.hub_ratio > 0.0
                             ? options_.hub_ratio
                             : (options_.mode == BepiMode::kBasic ? 0.001
                                                                  : 0.2);
}

std::string BepiSolver::name() const { return BepiModeName(options_.mode); }

Status BepiSolver::Preprocess(const Graph& g) {
  return Preprocess(g, /*checkpoints=*/nullptr);
}

Status BepiSolver::Preprocess(const Graph& g, CheckpointManager* checkpoints) {
  Timer total_timer;
  TraceSpan preprocess_span("preprocess");
  preprocess_span.Arg("nodes", g.num_nodes());
  preprocess_span.Arg("edges", g.num_edges());
  preprocessed_ = false;

  MemoryBudget budget(options_.memory_budget_bytes);
  DecompositionOptions dopts;
  dopts.restart_prob = options_.restart_prob;
  dopts.hub_ratio = effective_hub_ratio_;
  dopts.hub_selection = options_.hub_selection;
  dopts.cancel = options_.cancel;
  if (checkpoints != nullptr) {
    // Every option that shapes the decomposition goes into the fingerprint
    // tag, so checkpoints from a run with different parameters read as
    // stale and are recomputed instead of resumed.
    std::ostringstream tag;
    tag.precision(17);
    tag << "mode=" << static_cast<int>(options_.mode)
        << " c=" << dopts.restart_prob << " k=" << dopts.hub_ratio
        << " sel=" << static_cast<int>(dopts.hub_selection)
        << " sbmax=" << dopts.slashburn_max_iterations;
    checkpoints->Bind(PreprocessFingerprint(g, tag.str()));
  }
  BEPI_ASSIGN_OR_RETURN(dec_,
                        BuildDecomposition(g, dopts, &budget, checkpoints));

  info_ = BepiPreprocessInfo();
  info_.n1 = dec_.n1;
  info_.n2 = dec_.n2;
  info_.n3 = dec_.n3;
  info_.num_blocks = static_cast<index_t>(dec_.block_sizes.size());
  info_.slashburn_iterations = dec_.slashburn_iterations;
  info_.schur_nnz = dec_.schur.nnz();
  info_.h22_nnz = dec_.h22.nnz();
  info_.product_nnz = dec_.product_nnz;
  info_.reorder_seconds = dec_.reorder_seconds;
  info_.build_seconds = dec_.build_seconds;
  info_.factor_seconds = dec_.factor_seconds;
  info_.schur_seconds = dec_.schur_seconds;
  if (checkpoints != nullptr) {
    info_.checkpoint_seconds = checkpoints->write_seconds();
    info_.checkpoints_written = checkpoints->checkpoints_written();
    info_.checkpoints_resumed = checkpoints->checkpoints_resumed();
  }

  ilu_.reset();
  // The decomposition's checkpoints are durable past this point; honour a
  // pending cancellation before the (unresumable) ILU factorization.
  if (options_.cancel != nullptr && options_.cancel->Expired()) {
    return options_.cancel->ToStatus("preprocess (ilu)");
  }
  if (options_.mode == BepiMode::kPreconditioned && dec_.n2 > 0) {
    Timer ilu_timer;
    TraceSpan ilu_span("preprocess.ilu0");
    ilu_span.Arg("schur_nnz", dec_.schur.nnz());
    // The ILU(0) factors have the same footprint as S (paper Section 3.5).
    BEPI_RETURN_IF_ERROR(
        budget.Charge(dec_.schur.ByteSize(), "ILU(0) factors of S"));
    Result<Ilu0> ilu = Ilu0::Factor(dec_.schur);
    if (ilu.ok()) {
      ilu_ = std::move(ilu).value();
    } else if (options_.enable_fallbacks &&
               ilu.status().code() == StatusCode::kFailedPrecondition) {
      // Breakdown (zero/tiny pivot): degrade to unpreconditioned queries
      // rather than failing preprocessing; the query's primary hop then
      // runs Jacobi+GMRES.
      BEPI_LOG(Warning) << "ILU(0) breakdown, continuing unpreconditioned: "
                        << ilu.status().ToString();
      info_.ilu_skipped = true;
    } else {
      return ilu.status();
    }
    info_.ilu_seconds = ilu_timer.Seconds();
  }
  inverse_perm_ = InversePermutation(dec_.perm);
  BindQueryKernels();
  preprocess_seconds_ = total_timer.Seconds();
  preprocessed_ = true;
  return Status::Ok();
}

void BepiSolver::BindQueryKernels() {
  kernels_ = std::make_unique<DecompositionKernels>(
      BindDecompositionKernels(dec_, GlobalKernelPath()));
  // Eps error-bound factors: one O(nnz) pass over the back-substitution
  // matrices, negligible next to the decomposition itself and valid until
  // the matrices change.
  bound_tables_ = BuildTopKBoundTables(dec_);
  if (ilu_.has_value()) ilu_->BindKernelPath(kernels_->path);
  BEPI_LOG(Info) << "kernel path " << KernelPathName(kernels_->path) << " ("
                 << kernels_->reason << ")";
  if (MetricsEnabled()) {
    // 1 = compact, 0 = wide; alongside the log line this makes the chosen
    // path observable in scraped metrics.
    MetricsRegistry::Global()
        .GetGauge("model.kernel_path")
        ->Set(kernels_->path == KernelPath::kCompact ? 1.0 : 0.0);
  }
}

Result<Vector> BepiSolver::Query(index_t seed, QueryStats* stats) const {
  return Query(seed, stats, /*workspace=*/nullptr);
}

Result<Vector> BepiSolver::Query(index_t seed, QueryStats* stats,
                                 GmresWorkspace* workspace) const {
  return Query(seed, stats, workspace, QueryControl());
}

Result<Vector> BepiSolver::Query(index_t seed, QueryStats* stats,
                                 GmresWorkspace* workspace,
                                 const QueryControl& control) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  if (seed < 0 || seed >= dec_.n) {
    return Status::OutOfRange("seed out of range");
  }
  const real_t c = options_.restart_prob;
  const index_t n1 = dec_.n1, n2 = dec_.n2, n3 = dec_.n3;

  // Partitioned starting vector: c*q has a single entry at the reordered
  // seed position (Algorithm 4, lines 1-2).
  const index_t pos = dec_.perm[static_cast<std::size_t>(seed)];
  Vector cq1(static_cast<std::size_t>(n1), 0.0);
  Vector cq2(static_cast<std::size_t>(n2), 0.0);
  Vector cq3(static_cast<std::size_t>(n3), 0.0);
  if (pos < n1) {
    cq1[static_cast<std::size_t>(pos)] = c;
  } else if (pos < n1 + n2) {
    cq2[static_cast<std::size_t>(pos - n1)] = c;
  } else {
    cq3[static_cast<std::size_t>(pos - n1 - n2)] = c;
  }
  return SolveFromSlices(cq1, cq2, cq3, stats, workspace, control);
}

Result<TopKResult> BepiSolver::QueryTopK(index_t seed, const TopKOptions& opts,
                                         QueryStats* stats,
                                         GmresWorkspace* workspace,
                                         const QueryControl& control) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  if (seed < 0 || seed >= dec_.n) {
    return Status::OutOfRange("seed out of range");
  }
  if (opts.k < 1 || opts.k > dec_.n) {
    return Status::InvalidArgument(
        "top_k must be in [1, " + std::to_string(dec_.n) + "], got " +
        std::to_string(opts.k));
  }
  QueryControl ctl = control;
  if (opts.mode == TopKMode::kEps) {
    if (!std::isfinite(opts.eps) || !(opts.eps > 0.0)) {
      return Status::InvalidArgument("eps must be finite and > 0");
    }
    ctl.eps = opts.eps;
  }
  QueryStats local_stats;
  QueryStats* st = stats != nullptr ? stats : &local_stats;
  BEPI_ASSIGN_OR_RETURN(Vector scores, Query(seed, st, workspace, ctl));
  if (MetricsEnabled()) {
    BEPI_METRIC_COUNTER(queries, "topk.queries");
    queries->Increment();
  }
  TopKResult out;
  out.entries = TopK(scores, opts.k, opts.exclude);
  out.error_bound = st->error_bound;
  return out;
}

Result<Vector> BepiSolver::QueryVector(const Vector& q,
                                       QueryStats* stats) const {
  return QueryVector(q, stats, /*workspace=*/nullptr);
}

Result<Vector> BepiSolver::QueryVector(const Vector& q, QueryStats* stats,
                                       GmresWorkspace* workspace) const {
  return QueryVector(q, stats, workspace, QueryControl());
}

Result<Vector> BepiSolver::QueryVector(const Vector& q, QueryStats* stats,
                                       GmresWorkspace* workspace,
                                       const QueryControl& control) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  if (static_cast<index_t>(q.size()) != dec_.n) {
    return Status::InvalidArgument("personalization vector length mismatch");
  }
  const real_t c = options_.restart_prob;
  const index_t n1 = dec_.n1, n2 = dec_.n2;
  Vector cq1(static_cast<std::size_t>(dec_.n1), 0.0);
  Vector cq2(static_cast<std::size_t>(dec_.n2), 0.0);
  Vector cq3(static_cast<std::size_t>(dec_.n3), 0.0);
  for (index_t u = 0; u < dec_.n; ++u) {
    const real_t v = q[static_cast<std::size_t>(u)];
    if (v == 0.0) continue;
    const index_t pos = dec_.perm[static_cast<std::size_t>(u)];
    if (pos < n1) {
      cq1[static_cast<std::size_t>(pos)] = c * v;
    } else if (pos < n1 + n2) {
      cq2[static_cast<std::size_t>(pos - n1)] = c * v;
    } else {
      cq3[static_cast<std::size_t>(pos - n1 - n2)] = c * v;
    }
  }
  return SolveFromSlices(cq1, cq2, cq3, stats, workspace, control);
}

real_t BepiSolver::EpsErrorBound(const Vector& q2_tilde,
                                 const Vector& r2) const {
  if (dec_.n2 == 0) return 0.0;
  // One extra SpMV: the TRUE residual of the returned iterate (GMRES only
  // tracks the preconditioned recurrence residual), so the reported bound
  // never depends on the preconditioner being well-behaved.
  Vector rho(static_cast<std::size_t>(dec_.n2));
  kernels_->schur.ResidualInto(r2, q2_tilde, &rho);
  real_t norm1 = 0.0;
  for (real_t v : rho) norm1 += std::abs(v);
  return ScoreErrorBound(bound_tables_, norm1, options_.restart_prob);
}

bool BepiSolver::McWarmStart(const Vector& cq1, const Vector& cq2,
                             const Vector& cq3, const QueryControl& control,
                             Vector* x0) const {
  if (!control.warm_start_mc || mc_ == nullptr || dec_.n2 == 0) return false;
  TraceSpan warm_span("query.mc_warm_start");
  // Recover q in original ids from the scaled slices (same mapping as
  // McTerminalHop) and run a deliberately small walk budget: the estimate
  // only has to land GMRES inside the basin where one restart cycle
  // finishes the job, not meet a confidence target.
  const real_t inv_c = static_cast<real_t>(1.0) / options_.restart_prob;
  Vector q(static_cast<std::size_t>(dec_.n), 0.0);
  const index_t n1 = dec_.n1, n2 = dec_.n2;
  auto scatter = [&](const Vector& slice, index_t offset) {
    for (std::size_t i = 0; i < slice.size(); ++i) {
      if (slice[i] != 0.0) {
        q[static_cast<std::size_t>(
            inverse_perm_[static_cast<std::size_t>(offset) + i])] =
            slice[i] * inv_c;
      }
    }
  };
  scatter(cq1, 0);
  scatter(cq2, n1);
  scatter(cq3, n1 + n2);
  McOptions mo;
  mo.restart_prob = options_.restart_prob;
  mo.walks = std::min<std::uint64_t>(mc_fallback_options_.walks, 20'000);
  mo.delta = mc_fallback_options_.delta;
  mo.seed = mc_fallback_options_.seed;
  mo.cancel = control.cancel;
  mo.allow_partial = true;
  Result<McEstimate> est = mc_->EstimateVector(q, mo);
  if (!est.ok()) return false;
  const Vector& scores = est.value().scores;
  x0->assign(static_cast<std::size_t>(n2), 0.0);
  for (index_t j = 0; j < n2; ++j) {
    (*x0)[static_cast<std::size_t>(j)] = scores[static_cast<std::size_t>(
        inverse_perm_[static_cast<std::size_t>(n1 + j)])];
  }
  if (MetricsEnabled()) {
    BEPI_METRIC_COUNTER(warm, "query.mc_warm_starts");
    warm->Increment();
  }
  return true;
}

Result<Vector> BepiSolver::SolveFromSlices(const Vector& cq1,
                                           const Vector& cq2,
                                           const Vector& cq3,
                                           QueryStats* stats,
                                           GmresWorkspace* workspace,
                                           const QueryControl& control) const {
  Timer timer;
  TraceSpan query_span("query");
  if (control.request_id != nullptr) {
    query_span.Arg("request_id", std::string(control.request_id));
  }
  const index_t n1 = dec_.n1, n2 = dec_.n2, n3 = dec_.n3;

  // Everything below runs on the bound kernel views (compact or wide —
  // same results either way; see sparse/kernel.hpp).
  BEPI_CHECK(kernels_ != nullptr);
  const DecompositionKernels& kern = *kernels_;

  // q2~ = c q2 - H21 (U1^{-1} (L1^{-1} (c q1)))  (Algorithm 4, line 3).
  Vector q2_tilde = cq2;
  {
    TraceSpan rhs_span("query.rhs_build");
    if (n1 > 0) {
      const Vector h11inv_cq1 = kern.ApplyH11Inverse(cq1);
      kern.h21.MultiplyAdd(-1.0, h11inv_cq1, &q2_tilde);
    }
  }

  ResilientSolveOptions ropts;
  // Eps mode (QueryControl::eps > 0) truncates the Schur solve at the
  // user's tolerance; the honest sup-norm consequence is computed from the
  // true residual below and reported in stats->error_bound.
  ropts.tol = control.eps > 0.0 ? control.eps : options_.tolerance;
  ropts.max_iters = options_.max_iterations;
  ropts.gmres_restart = options_.gmres_restart;
  ropts.gmres_workspace = workspace;
  ropts.cancel = control.cancel;
  ropts.request_id = control.request_id;
  Vector warm_x0;
  if (McWarmStart(cq1, cq2, cq3, control, &warm_x0)) ropts.x0 = &warm_x0;

  // Solve S r2 = q2~ through the degradation chain (line 4).
  QueryReport report;
  // A cancelled solve that exits early (caller did not opt into partial
  // results) still owes honest stats: the producing attempt's residual is
  // the error bound of the iterate being discarded.
  auto cancelled_early = [&]() -> Status {
    if (stats != nullptr) {
      stats->seconds = timer.Seconds();
      stats->total_iterations = report.total_iterations();
      if (!report.attempts.empty()) {
        const SolveAttempt& producing = report.attempts.back();
        stats->iterations = producing.iterations;
        stats->residual = producing.residual;
      }
      stats->outcome = SolveOutcome::kCancelled;
      stats->report = std::move(report);
    }
    return control.cancel->ToStatus("query");
  };
  Vector r1, r3;
  Vector r2(static_cast<std::size_t>(n2), 0.0);
  bool back_substitute = true;
  if (n2 > 0) {
    Result<Vector> schur_solve = [&] {
      TraceSpan schur_span("query.schur_solve");
      KernelCsrOperator schur_op(kern.schur);
      const PrimaryPreconditioner precond(dec_.schur, preconditioner());
      return PrimarySchurSolve(schur_op, precond, q2_tilde, ropts, &report);
    }();
    if (schur_solve.ok()) {
      r2 = std::move(schur_solve).value();
      if (report.final_outcome == SolveOutcome::kCancelled &&
          control.cancel != nullptr && !control.allow_partial) {
        // The deadline/cancellation fired and the caller did not opt into
        // partial results: surface the token's Status instead of a vector.
        return cancelled_early();
      }
    } else if (schur_solve.status().code() == StatusCode::kNotConverged &&
               options_.enable_fallbacks) {
      // Stage 2: the primary hop failed; solve the original reordered
      // system H r = c q by power iteration, which always converges for
      // RWR. The back-substitution lines are skipped — the fallback
      // produces the full vector directly.
      Vector cq;
      cq.reserve(static_cast<std::size_t>(dec_.n));
      cq.insert(cq.end(), cq1.begin(), cq1.end());
      cq.insert(cq.end(), cq2.begin(), cq2.end());
      cq.insert(cq.end(), cq3.begin(), cq3.end());
      Result<Vector> power = GlobalPowerFallback(dec_, cq, ropts, &report);
      if (power.ok()) {
        Vector r = std::move(power).value();
        auto at = [&r](index_t i) {
          return r.begin() + static_cast<std::ptrdiff_t>(i);
        };
        r1.assign(at(0), at(n1));
        r2.assign(at(n1), at(n1 + n2));
        r3.assign(at(n1 + n2), at(dec_.n));
        back_substitute = false;
        if (report.final_outcome == SolveOutcome::kCancelled &&
            control.cancel != nullptr && !control.allow_partial) {
          return cancelled_early();
        }
      } else if (mc_ != nullptr &&
                 power.status().code() == StatusCode::kNotConverged) {
        // Stage 3: the Monte-Carlo terminal stage. Every linear-algebra
        // stage — all of which share the preprocessed factors — has
        // failed, so the query is answered from the raw graph instead:
        // simulated walks, with the estimate's confidence half-width
        // recorded as the attempt's residual (an explicit error bound in
        // place of a solver residual).
        Result<Vector> mc_scores = McTerminalHop(cq, &report, control);
        if (!mc_scores.ok()) {
          if (control.cancel != nullptr &&
              (mc_scores.status().code() == StatusCode::kCancelled ||
               mc_scores.status().code() == StatusCode::kDeadlineExceeded)) {
            return cancelled_early();
          }
          return mc_scores.status();
        }
        // The estimate is already in original node ids; scatter it into
        // the reordered slices so the reassembly/stats tail below stays
        // the single exit path.
        const Vector& scores = mc_scores.value();
        r1.assign(static_cast<std::size_t>(n1), 0.0);
        r2.assign(static_cast<std::size_t>(n2), 0.0);
        r3.assign(static_cast<std::size_t>(n3), 0.0);
        for (index_t old = 0; old < dec_.n; ++old) {
          const index_t pos = dec_.perm[static_cast<std::size_t>(old)];
          const real_t v = scores[static_cast<std::size_t>(old)];
          if (pos < n1) {
            r1[static_cast<std::size_t>(pos)] = v;
          } else if (pos < n1 + n2) {
            r2[static_cast<std::size_t>(pos - n1)] = v;
          } else {
            r3[static_cast<std::size_t>(pos - n1 - n2)] = v;
          }
        }
        back_substitute = false;
      } else {
        return power.status();
      }
    } else {
      return schur_solve.status();
    }
  }

  // Every answer that is not an exact converged solve owes an honest
  // per-score bound (QueryStats::error_bound).
  real_t error_bound = 0.0;
  if (back_substitute) {
    // Eps-truncated and partial iterates: the bound follows from the true
    // Schur residual of the iterate the primary hop handed over.
    if (control.eps > 0.0 ||
        report.final_outcome == SolveOutcome::kCancelled) {
      error_bound = EpsErrorBound(q2_tilde, r2);
    }
    TraceSpan backsub_span("query.back_substitution");
    // r1 = U1^{-1} (L1^{-1} (c q1 - H12 r2))  (line 5).
    if (n1 > 0) {
      Vector rhs1 = cq1;
      kern.h12.MultiplyAdd(-1.0, r2, &rhs1);
      r1 = kern.ApplyH11Inverse(rhs1);
    }
    // r3 = c q3 - H31 r1 - H32 r2  (line 6).
    r3 = cq3;
    if (n3 > 0) {
      if (n1 > 0) kern.h31.MultiplyAdd(-1.0, r1, &r3);
      if (n2 > 0) kern.h32.MultiplyAdd(-1.0, r2, &r3);
    }
  } else if (report.attempts.back().stage != "power") {
    // The MC terminal stage's confidence half-width already is a
    // per-coordinate bound.
    error_bound = report.attempts.back().residual;
  } else {
    // The power stage's scalar residual is NOT a per-score bound:
    // recompute the true full-system residual rho = c q - H r and bound
    // via ||rho||_1/c.
    Vector rho1 = cq1, rho2 = cq2, rho3 = cq3;
    if (n1 > 0) {
      dec_.h11.MultiplyAdd(-1.0, r1, &rho1);
      if (n2 > 0) dec_.h12.MultiplyAdd(-1.0, r2, &rho1);
      if (n3 > 0) dec_.h31.MultiplyAdd(-1.0, r1, &rho3);
    }
    if (n2 > 0) {
      if (n1 > 0) dec_.h21.MultiplyAdd(-1.0, r1, &rho2);
      dec_.h22.MultiplyAdd(-1.0, r2, &rho2);
      if (n3 > 0) dec_.h32.MultiplyAdd(-1.0, r2, &rho3);
    }
    real_t norm1 = 0.0;
    for (real_t v : rho1) norm1 += std::abs(v);
    for (real_t v : rho2) norm1 += std::abs(v);
    for (index_t i = 0; i < n3; ++i) {
      norm1 += std::abs(rho3[static_cast<std::size_t>(i)] -
                        r3[static_cast<std::size_t>(i)]);
    }
    error_bound = FullSystemScoreBound(norm1, options_.restart_prob);
  }

  // Concatenate and undo the node reordering (line 7).
  Vector result(static_cast<std::size_t>(dec_.n));
  for (index_t i = 0; i < n1; ++i) {
    result[static_cast<std::size_t>(
        inverse_perm_[static_cast<std::size_t>(i)])] =
        r1[static_cast<std::size_t>(i)];
  }
  for (index_t i = 0; i < n2; ++i) {
    result[static_cast<std::size_t>(
        inverse_perm_[static_cast<std::size_t>(n1 + i)])] =
        r2[static_cast<std::size_t>(i)];
  }
  for (index_t i = 0; i < n3; ++i) {
    result[static_cast<std::size_t>(
        inverse_perm_[static_cast<std::size_t>(n1 + n2 + i)])] =
        r3[static_cast<std::size_t>(i)];
  }
  const double seconds = timer.Seconds();
  if (MetricsEnabled()) {
    BEPI_METRIC_COUNTER(queries, "query.count");
    BEPI_METRIC_COUNTER(hops, "query.fallback_hops");
    BEPI_METRIC_HISTOGRAM(latency, "query.latency_seconds");
    // Registered outside the conditional so the key exists in every
    // instrumented snapshot (the docs glossary cross-check relies on a
    // deterministic key set).
    BEPI_METRIC_COUNTER(cancelled, "query.cancelled");
    queries->Increment();
    hops->Increment(static_cast<std::uint64_t>(report.fallback_hops()));
    latency->RecordAlways(seconds);
    if (report.final_outcome == SolveOutcome::kCancelled) {
      cancelled->Increment();
    }
  }
  query_span.Arg("fallback_hops", report.fallback_hops());
  query_span.Arg("iterations", report.total_iterations());
  if (stats != nullptr) {
    stats->seconds = seconds;
    // `iterations` belongs to the attempt that produced the result;
    // `total_iterations` is derived from the full chain (the old code
    // risked double-counting if both were accumulated independently).
    stats->total_iterations = report.total_iterations();
    if (!report.attempts.empty()) {
      const SolveAttempt& producing = report.attempts.back();
      stats->iterations = producing.iterations;
      stats->residual = producing.residual;
      stats->outcome = producing.outcome;
    } else {
      stats->iterations = 0;
      stats->residual = 0.0;
      stats->outcome = SolveOutcome::kConverged;
    }
    stats->error_bound = error_bound;
    stats->report = std::move(report);
  }
  return result;
}

Status BepiSolver::QueryMulti(const std::vector<MultiQueryItem>& items,
                              std::vector<MultiQueryResult>* results) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  BEPI_CHECK(results != nullptr);
  results->clear();
  results->resize(items.size());
  Timer timer;

  // The scalar escape hatch: one ordinary Query with the item's own
  // controls. Used for every item when the block path does not apply, and
  // per column when a blocked solve does not converge — either way the
  // item gets exactly the single-query code path and its full degradation
  // chain.
  auto solo = [&](std::size_t j) {
    MultiQueryResult& res = (*results)[j];
    Result<Vector> r = Query(items[j].seed, &res.stats, /*workspace=*/nullptr,
                             items[j].control);
    if (r.ok()) {
      res.scores = std::move(r).value();
      res.status = Status::Ok();
    } else {
      res.status = r.status();
    }
    res.coalesced = false;
  };

  // A degenerate partition (no Schur system), like a width-1 batch, gains
  // nothing from coalescing.
  if (items.size() < 2 || dec_.n2 == 0) {
    for (std::size_t j = 0; j < items.size(); ++j) solo(j);
    return Status::Ok();
  }

  TraceSpan multi_span("query.multi");
  multi_span.Arg("width", static_cast<index_t>(items.size()));
  const real_t c = options_.restart_prob;
  const index_t n1 = dec_.n1, n2 = dec_.n2, n3 = dec_.n3;
  BEPI_CHECK(kernels_ != nullptr);
  const DecompositionKernels& kern = *kernels_;

  std::vector<std::size_t> blockable;
  blockable.reserve(items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (items[j].seed < 0 || items[j].seed >= dec_.n) {
      (*results)[j].status = Status::OutOfRange("seed out of range");
      continue;
    }
    // Eps items solve solo: their truncated tolerance must not leak into
    // the lockstep solve of coalesced neighbors. A warm-started item's
    // iterate sequence differs from the zero-start blocked solve; keep the
    // bit-identical-to-solo contract by solving it solo too.
    if (items[j].control.eps > 0.0 ||
        (items[j].control.warm_start_mc && mc_ != nullptr)) {
      solo(j);
      continue;
    }
    blockable.push_back(j);
  }
  if (blockable.size() < 2) {
    for (std::size_t j : blockable) solo(j);
    return Status::Ok();
  }

  // Row-major panels of the partitioned scaled start vectors: one column
  // per blockable seed, a single entry c at the reordered position
  // (Algorithm 4 lines 1-2, k seeds at once).
  const index_t kb = static_cast<index_t>(blockable.size());
  const std::size_t kbz = static_cast<std::size_t>(kb);
  std::vector<real_t> cq1_panel(static_cast<std::size_t>(n1) * kbz, 0.0);
  // q2t starts as the c*q2 panel and becomes the blocked q2~ in place.
  std::vector<real_t> q2t(static_cast<std::size_t>(n2) * kbz, 0.0);
  std::vector<index_t> pos_of(kbz);
  for (std::size_t jj = 0; jj < kbz; ++jj) {
    const index_t pos =
        dec_.perm[static_cast<std::size_t>(items[blockable[jj]].seed)];
    pos_of[jj] = pos;
    if (pos < n1) {
      cq1_panel[static_cast<std::size_t>(pos) * kbz + jj] = c;
    } else if (pos < n1 + n2) {
      q2t[static_cast<std::size_t>(pos - n1) * kbz + jj] = c;
    }
  }

  // Blocked rhs build: q2~ = c q2 - H21 (H11^{-1} (c q1)), two SpMMs and
  // one SpMM-add instead of 3k SpMVs (Algorithm 4 line 3, per column
  // bit-identical to the scalar build).
  std::vector<real_t> panel_tmp;
  {
    TraceSpan rhs_span("query.rhs_build");
    if (n1 > 0) {
      std::vector<real_t> hinv(static_cast<std::size_t>(n1) * kbz);
      kern.ApplyH11InverseMulti(cq1_panel.data(), kb, hinv.data(), &panel_tmp);
      kern.h21.MultiplyAddMulti(-1.0, hinv.data(), kb, q2t.data());
    }
  }

  // Lockstep blocked Schur solve of the primary preconditioned hop.
  std::vector<Vector> rhs_cols(kbz, Vector(static_cast<std::size_t>(n2)));
  for (std::size_t jj = 0; jj < kbz; ++jj) {
    for (index_t i = 0; i < n2; ++i) {
      rhs_cols[jj][static_cast<std::size_t>(i)] =
          q2t[static_cast<std::size_t>(i) * kbz + jj];
    }
  }
  KernelCsrOperator schur_op(kern.schur);
  const PrimaryPreconditioner precond(dec_.schur, preconditioner());
  BlockGmresOptions bopts;
  bopts.tol = options_.tolerance;
  bopts.max_iters = options_.max_iterations;
  bopts.restart = options_.gmres_restart;
  std::vector<BlockGmresRhs> brhs(kbz);
  for (std::size_t jj = 0; jj < kbz; ++jj) {
    brhs[jj].b = &rhs_cols[jj];
    brhs[jj].cancel = items[blockable[jj]].control.cancel;
  }
  std::vector<BlockGmresColumn> bcols;
  Timer hop_timer;
  const Status block_status =
      BlockGmres(schur_op, brhs, bopts, &precond.get(), &bcols);
  const double hop_seconds = hop_timer.Seconds();
  if (!block_status.ok()) {
    // Shape mismatches cannot happen for a bound model; degrade to the
    // scalar path rather than failing the whole batch.
    for (std::size_t j : blockable) solo(j);
    return Status::Ok();
  }

  // Split the verdicts: converged columns proceed to the blocked
  // back-substitution, everything else re-solves through the scalar chain
  // so one stalled/faulted/cancelled seed never poisons its batch.
  std::vector<std::size_t> conv;
  conv.reserve(kbz);
  for (std::size_t jj = 0; jj < kbz; ++jj) {
    if (bcols[jj].stats.converged &&
        bcols[jj].stats.outcome == SolveOutcome::kConverged) {
      conv.push_back(jj);
    } else {
      solo(blockable[jj]);
    }
  }
  if (conv.empty()) return Status::Ok();

  // Blocked back-substitution (Algorithm 4 lines 5-6 over panels):
  //   r1 = H11^{-1} (c q1 - H12 r2),  r3 = c q3 - H31 r1 - H32 r2.
  const index_t kc = static_cast<index_t>(conv.size());
  const std::size_t kcz = static_cast<std::size_t>(kc);
  std::vector<real_t> r2_panel(static_cast<std::size_t>(n2) * kcz);
  for (std::size_t q = 0; q < kcz; ++q) {
    const Vector& x = bcols[conv[q]].x;
    for (index_t i = 0; i < n2; ++i) {
      r2_panel[static_cast<std::size_t>(i) * kcz + q] =
          x[static_cast<std::size_t>(i)];
    }
  }
  std::vector<real_t> r1_panel, r3_panel;
  {
    TraceSpan backsub_span("query.back_substitution");
    if (n1 > 0) {
      std::vector<real_t> rhs1(static_cast<std::size_t>(n1) * kcz, 0.0);
      for (std::size_t q = 0; q < kcz; ++q) {
        const index_t pos = pos_of[conv[q]];
        if (pos < n1) rhs1[static_cast<std::size_t>(pos) * kcz + q] = c;
      }
      kern.h12.MultiplyAddMulti(-1.0, r2_panel.data(), kc, rhs1.data());
      r1_panel.resize(static_cast<std::size_t>(n1) * kcz);
      kern.ApplyH11InverseMulti(rhs1.data(), kc, r1_panel.data(), &panel_tmp);
    }
    r3_panel.assign(static_cast<std::size_t>(n3) * kcz, 0.0);
    for (std::size_t q = 0; q < kcz; ++q) {
      const index_t pos = pos_of[conv[q]];
      if (pos >= n1 + n2) {
        r3_panel[static_cast<std::size_t>(pos - n1 - n2) * kcz + q] = c;
      }
    }
    if (n3 > 0) {
      if (n1 > 0) kern.h31.MultiplyAddMulti(-1.0, r1_panel.data(), kc,
                                            r3_panel.data());
      kern.h32.MultiplyAddMulti(-1.0, r2_panel.data(), kc, r3_panel.data());
    }
  }

  // Reassemble each converged column (line 7) and fill its stats exactly
  // the way the scalar tail does for a primary-hop success.
  const double seconds = timer.Seconds();
  for (std::size_t q = 0; q < kcz; ++q) {
    const std::size_t jj = conv[q];
    MultiQueryResult& res = (*results)[blockable[jj]];
    res.scores.resize(static_cast<std::size_t>(dec_.n));
    for (index_t i = 0; i < n1; ++i) {
      res.scores[static_cast<std::size_t>(
          inverse_perm_[static_cast<std::size_t>(i)])] =
          r1_panel[static_cast<std::size_t>(i) * kcz + q];
    }
    for (index_t i = 0; i < n2; ++i) {
      res.scores[static_cast<std::size_t>(
          inverse_perm_[static_cast<std::size_t>(n1 + i)])] =
          r2_panel[static_cast<std::size_t>(i) * kcz + q];
    }
    for (index_t i = 0; i < n3; ++i) {
      res.scores[static_cast<std::size_t>(
          inverse_perm_[static_cast<std::size_t>(n1 + n2 + i)])] =
          r3_panel[static_cast<std::size_t>(i) * kcz + q];
    }

    SolveAttempt attempt;
    attempt.stage = precond.stage();
    attempt.outcome = SolveOutcome::kConverged;
    attempt.iterations = bcols[jj].stats.iterations;
    attempt.residual = bcols[jj].stats.relative_residual;
    // Wall time the request spent waiting on the shared blocked solve —
    // the latency it observed, not a per-column slice of the work.
    attempt.seconds = hop_seconds;
    QueryReport report;
    RecordAttempt(attempt, items[blockable[jj]].control.request_id, &report);
    if (MetricsEnabled()) {
      BEPI_METRIC_COUNTER(queries, "query.count");
      BEPI_METRIC_COUNTER(hops, "query.fallback_hops");
      BEPI_METRIC_HISTOGRAM(latency, "query.latency_seconds");
      BEPI_METRIC_COUNTER(cancelled, "query.cancelled");
      (void)cancelled;
      queries->Increment();
      hops->Increment(static_cast<std::uint64_t>(report.fallback_hops()));
      latency->RecordAlways(seconds);
    }
    res.coalesced = true;
    res.status = Status::Ok();
    res.stats.seconds = seconds;
    res.stats.total_iterations = report.total_iterations();
    res.stats.iterations = attempt.iterations;
    res.stats.residual = attempt.residual;
    res.stats.outcome = attempt.outcome;
    res.stats.report = std::move(report);
  }
  return Status::Ok();
}

Status BepiSolver::AttachMcFallback(const McWalkEngine* engine,
                                    McFallbackOptions options) {
  if (engine != nullptr && preprocessed_ && engine->num_nodes() != dec_.n) {
    return Status::InvalidArgument(
        "mc fallback engine covers " + std::to_string(engine->num_nodes()) +
        " nodes but the model has " + std::to_string(dec_.n));
  }
  if (engine != nullptr && options.walks == 0) {
    return Status::InvalidArgument("mc fallback walk budget must be positive");
  }
  mc_ = engine;
  mc_fallback_options_ = options;
  return Status::Ok();
}

Result<Vector> BepiSolver::McTerminalHop(const Vector& cq, QueryReport* report,
                                         const QueryControl& control) const {
  TraceSpan hop_span("query.mc_fallback");
  Timer hop_timer;
  // Recover the start distribution q in original ids from the reordered
  // scaled slices: q[old] = cq[perm[old]] / c.
  Vector q(static_cast<std::size_t>(dec_.n), 0.0);
  const real_t inv_c = static_cast<real_t>(1.0) / options_.restart_prob;
  for (index_t i = 0; i < dec_.n; ++i) {
    const real_t v = cq[static_cast<std::size_t>(i)];
    if (v != 0.0) {
      q[static_cast<std::size_t>(inverse_perm_[static_cast<std::size_t>(i)])] =
          v * inv_c;
    }
  }
  McOptions mo;
  mo.restart_prob = options_.restart_prob;
  mo.walks = mc_fallback_options_.walks;
  mo.delta = mc_fallback_options_.delta;
  mo.seed = mc_fallback_options_.seed;
  mo.cancel = control.cancel;
  mo.allow_partial = control.allow_partial;
  Result<McEstimate> est = mc_->EstimateVector(q, mo);
  SolveAttempt attempt;
  attempt.stage = "mc";
  if (est.ok()) {
    attempt.outcome = est.value().outcome;
    attempt.iterations = static_cast<index_t>(est.value().walks_completed);
    attempt.residual = est.value().uniform_eps;
  } else {
    const bool token_expired =
        est.status().code() == StatusCode::kCancelled ||
        est.status().code() == StatusCode::kDeadlineExceeded;
    attempt.outcome =
        token_expired ? SolveOutcome::kCancelled : SolveOutcome::kBreakdown;
    attempt.iterations = 0;
    attempt.residual = 1.0;  // an estimate that never ran bounds nothing
  }
  attempt.seconds = hop_timer.Seconds();
  RecordAttempt(attempt, control.request_id, report);
  if (hop_span.active()) {
    hop_span.Arg("outcome", SolveOutcomeName(attempt.outcome));
    hop_span.Arg("walks", attempt.iterations);
    hop_span.Arg("uniform_eps", attempt.residual);
    if (control.request_id != nullptr) {
      hop_span.Arg("request_id", std::string(control.request_id));
    }
  }
  if (!est.ok()) return est.status();
  return std::move(est).value().scores;
}

std::uint64_t BepiSolver::PreprocessedBytes() const {
  std::uint64_t bytes = dec_.CommonBytes() + dec_.schur.ByteSize();
  if (ilu_.has_value()) bytes += ilu_->ByteSize();
  // The compact path is not free: its uint32 index sidecars live alongside
  // the wide arrays and belong in the reported footprint.
  if (kernels_ != nullptr) bytes += kernels_->OwnedBytes();
  return bytes;
}

namespace {

// v4 frames every piece of the model (options, partition sizes,
// permutation, each matrix) as a length- and CRC32C-carrying section with
// a trailing manifest (common/sections.hpp), so any corruption is detected
// at load and attributed to a section. The payloads are the raw
// little-endian arrays of sparse/io.hpp: loading is a length check and a
// memcpy per array, and a round-trip is exact by construction. Older
// formats (v1-v3, whose payloads were text) are not read: preprocessing
// regenerates a model.
constexpr char kModelHeader[] = "BEPI-MODEL v4";

/// The nine stored matrices in serialization order with their shapes in
/// terms of the partition sizes.
struct MatrixSpec {
  const char* name;
  CsrMatrix HubSpokeDecomposition::*member;
  index_t HubSpokeDecomposition::*rows;
  index_t HubSpokeDecomposition::*cols;
};

constexpr MatrixSpec kMatrixSpecs[] = {
    {"l1_inv", &HubSpokeDecomposition::l1_inv, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n1},
    {"u1_inv", &HubSpokeDecomposition::u1_inv, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n1},
    {"h12", &HubSpokeDecomposition::h12, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n2},
    {"h21", &HubSpokeDecomposition::h21, &HubSpokeDecomposition::n2,
     &HubSpokeDecomposition::n1},
    {"h31", &HubSpokeDecomposition::h31, &HubSpokeDecomposition::n3,
     &HubSpokeDecomposition::n1},
    {"h32", &HubSpokeDecomposition::h32, &HubSpokeDecomposition::n3,
     &HubSpokeDecomposition::n2},
    {"schur", &HubSpokeDecomposition::schur, &HubSpokeDecomposition::n2,
     &HubSpokeDecomposition::n2},
    {"h11", &HubSpokeDecomposition::h11, &HubSpokeDecomposition::n1,
     &HubSpokeDecomposition::n1},
    {"h22", &HubSpokeDecomposition::h22, &HubSpokeDecomposition::n2,
     &HubSpokeDecomposition::n2},
};

Result<BepiOptions> ParseModelOptions(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  BepiOptions options;
  int mode = 0;
  in >> mode >> options.restart_prob >> options.tolerance >>
      options.max_iterations >> options.gmres_restart >> options.hub_ratio;
  if (!in || mode < 0 || mode > 2) {
    return Status::DataLoss("malformed BePI model options");
  }
  options.mode = static_cast<BepiMode>(mode);
  return options;
}

/// Reads the next section, which must be `name`, and decodes its payload
/// with `decode`. A payload that passed its checksum but does not decode
/// is DataLoss naming the section, like a checksum failure.
template <typename Decode>
auto DecodeNext(SectionReader& reader, const char* name, Decode decode)
    -> decltype(decode(std::string_view())) {
  BEPI_ASSIGN_OR_RETURN(Section section, reader.Expect(name));
  auto decoded = decode(section.payload);
  if (decoded.ok()) return decoded;
  return Status::DataLoss("section '" + section.name + "' at offset " +
                          std::to_string(section.offset) + ": " +
                          decoded.status().message());
}

}  // namespace

Status BepiSolver::Save(std::ostream& out) const {
  return SaveSections(out, nullptr);
}

Status BepiSolver::SaveSections(std::ostream& out,
                                std::int64_t* sections) const {
  if (!preprocessed_) {
    return Status::FailedPrecondition("nothing to save: Preprocess not called");
  }
  SectionWriter writer(out, kModelHeader);
  std::ostringstream options;
  options.precision(17);
  options << static_cast<int>(options_.mode) << " " << options_.restart_prob
          << " " << options_.tolerance << " " << options_.max_iterations
          << " " << options_.gmres_restart << " " << effective_hub_ratio_
          << "\n";
  BEPI_RETURN_IF_ERROR(writer.Add("options", options.str()));
  BEPI_RETURN_IF_ERROR(
      writer.Add("sizes", EncodeIndexVector({dec_.n1, dec_.n2, dec_.n3})));
  BEPI_RETURN_IF_ERROR(writer.Add("perm", EncodeIndexVector(dec_.perm)));
  for (const MatrixSpec& spec : kMatrixSpecs) {
    BEPI_RETURN_IF_ERROR(writer.Add(spec.name, EncodeCsr(dec_.*spec.member)));
  }
  // Spoke block layout, consumed by the eps bound tables (core/topk.hpp).
  // Optional on load: without it the tables fall back to one coarse
  // block.
  if (!dec_.block_sizes.empty()) {
    BEPI_RETURN_IF_ERROR(
        writer.Add("blocks", EncodeIndexVector(dec_.block_sizes)));
  }
  BEPI_RETURN_IF_ERROR(writer.Finish());
  if (!out) return Status::IoError("failed writing BePI model stream");
  if (sections != nullptr) {
    *sections = static_cast<std::int64_t>(writer.sections());
  }
  return Status::Ok();
}

Status BepiSolver::SaveFile(const std::string& path) const {
  TraceSpan span("model.save");
  AtomicFileWriter writer(path);
  BEPI_RETURN_IF_ERROR(writer.status());
  std::int64_t sections = 0;
  BEPI_RETURN_IF_ERROR(SaveSections(writer.stream(), &sections));
  span.Arg("bytes", static_cast<std::int64_t>(writer.stream().tellp()));
  span.Arg("sections", sections);
  // Commit flushes, closes and checks the stream (the old plain-ofstream
  // path silently swallowed close-time errors), fsyncs, and renames into
  // place so a crash never leaves a torn model at `path`.
  return writer.Commit();
}

Result<BepiSolver> BepiSolver::Load(std::istream& in) {
  BEPI_ASSIGN_OR_RETURN(const std::string data, ReadStreamToString(in));
  return LoadSections(data, nullptr);
}

Result<BepiSolver> BepiSolver::LoadSections(std::string_view data,
                                            std::int64_t* sections) {
  Result<SectionReader> opened = SectionReader::Open(data, kModelHeader);
  if (!opened.ok()) {
    return Status::IoError("not a BePI model stream (bad header: " +
                           opened.status().message() +
                           "); re-run preprocess to regenerate the model");
  }
  SectionReader& reader = *opened;
  BEPI_ASSIGN_OR_RETURN(BepiOptions options,
                        DecodeNext(reader, "options", ParseModelOptions));
  BepiSolver solver(options);
  HubSpokeDecomposition& dec = solver.dec_;
  // The sizes [n1, n2, n3] must add up to the permutation's length, which
  // the perm payload's exact-length check bounds: no claimed size drives
  // an allocation.
  BEPI_ASSIGN_OR_RETURN(std::vector<index_t> sizes,
                        DecodeNext(reader, "sizes", DecodeIndexVector));
  BEPI_ASSIGN_OR_RETURN(dec.perm,
                        DecodeNext(reader, "perm", DecodeIndexVector));
  dec.n = static_cast<index_t>(dec.perm.size());
  if (!IsPermutation(dec.perm)) {
    return Status::DataLoss("section 'perm': malformed BePI model permutation");
  }
  if (sizes.size() != 3 || sizes[0] < 0 || sizes[1] < 0 || sizes[0] > dec.n ||
      sizes[1] > dec.n - sizes[0] || sizes[2] != dec.n - sizes[0] - sizes[1]) {
    return Status::DataLoss(
        "section 'sizes': malformed BePI model partition sizes");
  }
  dec.n1 = sizes[0];
  dec.n2 = sizes[1];
  dec.n3 = sizes[2];
  for (const MatrixSpec& spec : kMatrixSpecs) {
    BEPI_ASSIGN_OR_RETURN(
        dec.*spec.member,
        DecodeNext(reader, spec.name, [&](std::string_view payload) {
          return DecodeCsr(payload, dec.*spec.rows, dec.*spec.cols);
        }));
  }
  // Drain to the manifest so tail truncation and directory mismatches are
  // caught even though all expected sections were present. The optional
  // "blocks" section is picked up here; any other section is skipped.
  while (!reader.done()) {
    BEPI_ASSIGN_OR_RETURN(std::optional<Section> extra, reader.Next());
    if (!extra.has_value() || extra->name != "blocks") continue;
    // Spoke block layout for the eps bound tables. Strictly optional: a
    // malformed section only loosens the bound (single-block fallback),
    // never fails the load.
    Result<std::vector<index_t>> blocks = DecodeIndexVector(extra->payload);
    bool valid = blocks.ok();
    index_t sum = 0;
    for (std::size_t b = 0; valid && b < blocks->size(); ++b) {
      valid = (*blocks)[b] > 0 && (*blocks)[b] <= dec.n1 - sum;
      sum += (*blocks)[b];
    }
    if (!valid || sum != dec.n1) {
      BEPI_LOG(Warning) << "model blocks section does not tile the spoke "
                           "partition; ignoring";
      continue;
    }
    dec.block_sizes = std::move(blocks).value();
  }
  BEPI_RETURN_IF_ERROR(solver.FinalizeLoaded());
  if (sections != nullptr) {
    *sections = static_cast<std::int64_t>(reader.sections_read());
  }
  return solver;
}

Status BepiSolver::FinalizeLoaded() {
  bool ilu_skipped = false;
  if (options_.mode == BepiMode::kPreconditioned && dec_.n2 > 0) {
    Result<Ilu0> ilu = Ilu0::Factor(dec_.schur);
    if (ilu.ok()) {
      ilu_ = std::move(ilu).value();
    } else if (options_.enable_fallbacks &&
               ilu.status().code() == StatusCode::kFailedPrecondition) {
      BEPI_LOG(Warning) << "ILU(0) breakdown on load, continuing "
                        << "unpreconditioned: " << ilu.status().ToString();
      ilu_skipped = true;
    } else {
      return ilu.status();
    }
  }
  inverse_perm_ = InversePermutation(dec_.perm);
  // Only the structural fields survive a round-trip; the timing breakdown
  // and H22/product counts belong to the original preprocessing run.
  info_ = BepiPreprocessInfo();
  info_.n1 = dec_.n1;
  info_.n2 = dec_.n2;
  info_.n3 = dec_.n3;
  info_.schur_nnz = dec_.schur.nnz();
  info_.ilu_skipped = ilu_skipped;
  BindQueryKernels();
  preprocessed_ = true;
  return Status::Ok();
}

Result<BepiSolver> BepiSolver::LoadFile(const std::string& path) {
  TraceSpan span("model.load");
  Timer timer;
  // Whole-file read (rather than a streaming ifstream) routes every load
  // through the fileio.bit_flip fault site, exercising checksum detection
  // end to end.
  BEPI_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(path));
  std::int64_t sections = 0;
  Result<BepiSolver> solver = LoadSections(content, &sections);
  span.Arg("bytes", static_cast<std::int64_t>(content.size()));
  span.Arg("sections", sections);
  if (solver.ok()) {
    // Startup cost as a scrapeable fact, like the process.* gauges: set
    // even when metric collection is off.
    BEPI_METRIC_GAUGE(load_seconds, "model.load_seconds");
    load_seconds->SetAlways(timer.Seconds());
  }
  return solver;
}

}  // namespace bepi
