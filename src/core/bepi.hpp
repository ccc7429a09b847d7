// BePI: the paper's main contribution. A block-elimination preprocessing
// method whose only remaining linear system — over the Schur complement of
// the block-diagonal spoke block H11 — is solved per query by (optionally
// ILU(0)-preconditioned) GMRES instead of being inverted.
//
// Three variants (paper Section 3.1):
//   kBasic          BePI-B: block elimination + iterative Schur solve,
//                   hub ratio chosen small (0.001) to minimize n2.
//   kSparsified     BePI-S: hub ratio ~0.2 minimizing |S| (Section 3.4).
//   kPreconditioned BePI:   adds the ILU(0) preconditioner (Section 3.5).
#ifndef BEPI_CORE_BEPI_HPP_
#define BEPI_CORE_BEPI_HPP_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

#include "common/cancel.hpp"
#include "core/decomposition.hpp"
#include "core/rwr.hpp"
#include "core/topk.hpp"
#include "solver/ilu0.hpp"

namespace bepi {

struct GmresWorkspace;
class McWalkEngine;

/// Configuration of the Monte-Carlo terminal stage (see AttachMcFallback).
/// Per-query parameters (restart probability, cancellation, partial-result
/// policy) come from the query itself; these are the walk-budget knobs.
struct McFallbackOptions {
  std::uint64_t walks = 200'000;
  double delta = 0.01;
  std::uint64_t seed = 20170514;
};

enum class BepiMode { kBasic, kSparsified, kPreconditioned };

const char* BepiModeName(BepiMode mode);

struct BepiOptions : RwrOptions {
  BepiMode mode = BepiMode::kPreconditioned;
  /// SlashBurn hub selection ratio k; 0 selects the paper's default for
  /// the mode (0.001 for kBasic, 0.2 otherwise).
  real_t hub_ratio = 0.0;
  /// GMRES restart length for the Schur-complement solve.
  index_t gmres_restart = 100;
  /// Hub selection strategy (kRandom is the ablation control).
  SlashBurnOptions::HubSelection hub_selection =
      SlashBurnOptions::HubSelection::kDegree;
  /// Run the degradation chain (core/resilient.hpp) when the primary
  /// Schur solve fails: global power iteration, then the Monte-Carlo
  /// terminal stage when one is attached. When false a failed solve
  /// surfaces as Status kNotConverged (the pre-resilience behavior, kept
  /// for ablations).
  bool enable_fallbacks = true;
  /// Cooperative cancellation for *preprocessing* (the CLI links the
  /// SIGINT/SIGTERM shutdown flag here). Checked at stage boundaries; with
  /// checkpointing enabled the current stage is committed before the
  /// Cancelled/DeadlineExceeded Status is returned. Not owned; may be
  /// null. Query-side cancellation goes through QueryControl instead.
  const CancelToken* cancel = nullptr;
};

/// Per-query runtime controls (deadline/cancellation), as opposed to the
/// numeric configuration in BepiOptions. A default-constructed control is
/// inert, and a null/never-expiring token leaves the solve bit-identical
/// to an uncontrolled one — the token is only *polled* at restart-cycle
/// and power-iteration boundaries, never consulted by the numerics.
struct QueryControl {
  /// Cooperative cancellation/deadline. May be null. Not owned; must
  /// outlive the query.
  const CancelToken* cancel = nullptr;
  /// What to do when `cancel` expires mid-solve. False: the query returns
  /// the token's Status (kDeadlineExceeded or kCancelled) and no vector.
  /// True: back-substitution completes from the best Schur iterate and
  /// the query returns that partial vector with stats->outcome ==
  /// kCancelled and stats->residual as the explicit error bound of the
  /// interrupted inner solve.
  bool allow_partial = false;
  /// Trace context from the serve path: attached to the query's trace
  /// spans and flight-recorder stage-hop events so one request can be
  /// followed across the whole degradation chain. Not owned; must outlive
  /// the query. May be null (non-serve callers).
  const char* request_id = nullptr;
  /// Bounded-error approximate mode: when > 0 the Schur solve stops at
  /// this relative residual tolerance instead of the model's, and a clean
  /// solve computes its true residual and reports the propagated sup-norm
  /// per-score bound in QueryStats::error_bound (core/topk.hpp
  /// ScoreErrorBound — the bound crosscheck verifies against the MC
  /// oracle). 0 leaves the solve bit-identical to the default path.
  real_t eps = 0.0;
  /// Seed the Schur solve's initial iterate from a cheap Monte-Carlo
  /// estimate (the attached AttachMcFallback engine) instead of zero —
  /// ROADMAP item 3's warm start, off by default because a nonzero x0
  /// changes the iterate sequence (fewer restart cycles, different bits).
  /// Ignored when no MC engine is attached.
  bool warm_start_mc = false;
};

/// One seed of a coalesced multi-seed query (BepiSolver::QueryMulti):
/// the seed plus the same per-request controls Query takes.
struct MultiQueryItem {
  index_t seed = 0;
  QueryControl control;
};

/// Per-seed verdict of QueryMulti. `scores`/`stats` are meaningful only
/// when `status` is ok, and are — by contract — bit-identical to what
/// Query(seed, ...) returns for the same seed: `coalesced` columns were
/// solved by the lockstep block path whose per-column arithmetic matches
/// the scalar solve exactly, and non-coalesced columns were literally
/// re-solved through the scalar path (the full degradation chain).
struct MultiQueryResult {
  Status status = Status::Ok();
  Vector scores;
  QueryStats stats;
  bool coalesced = false;
};

/// Structural metadata produced by preprocessing; consumed by the
/// benchmark harnesses (Tables 2-4, Figures 4, 6, 8).
struct BepiPreprocessInfo {
  index_t n1 = 0, n2 = 0, n3 = 0;
  index_t num_blocks = 0;
  index_t slashburn_iterations = 0;
  index_t schur_nnz = 0;
  index_t h22_nnz = 0;
  index_t product_nnz = 0;  // |H21 H11^-1 H12|
  double reorder_seconds = 0.0;
  double build_seconds = 0.0;
  double factor_seconds = 0.0;
  double schur_seconds = 0.0;
  double ilu_seconds = 0.0;
  /// True when ILU(0) factorization of S broke down and preprocessing
  /// continued without the preconditioner (enable_fallbacks only).
  bool ilu_skipped = false;
  // Checkpointing overhead (zero when preprocessing ran without a
  // CheckpointManager); lets bench_fig1_preprocessing report the cost of
  // kill-safety against the paper's preprocessing-time figures.
  double checkpoint_seconds = 0.0;
  index_t checkpoints_written = 0;
  index_t checkpoints_resumed = 0;
};

class BepiSolver final : public RwrSolver {
 public:
  explicit BepiSolver(BepiOptions options);

  std::string name() const override;
  Status Preprocess(const Graph& g) override;
  /// Kill-safe variant: with a non-null manager, preprocessing stages are
  /// checkpointed (and resumed) under a fingerprint derived from the graph
  /// and the options, so a SIGKILLed run restarted with the same arguments
  /// completes from the last durable stage and produces a bit-identical
  /// model. See core/checkpoint.hpp.
  Status Preprocess(const Graph& g, CheckpointManager* checkpoints);
  Result<Vector> Query(index_t seed, QueryStats* stats = nullptr) const override;
  Result<Vector> QueryVector(const Vector& q,
                             QueryStats* stats = nullptr) const override;
  /// Workspace-reusing variants for steady-state query loops: `workspace`
  /// (may be null) holds the GMRES scratch buffers across solves so no
  /// per-query heap allocation happens beyond the returned vector. One
  /// workspace per concurrent caller (see solver/gmres.hpp).
  Result<Vector> Query(index_t seed, QueryStats* stats,
                       GmresWorkspace* workspace) const;
  Result<Vector> QueryVector(const Vector& q, QueryStats* stats,
                             GmresWorkspace* workspace) const;
  /// Deadline-aware variants (see QueryControl): the serving path. The
  /// workspace is left reusable whatever the outcome — cancellation only
  /// ever stops between restart cycles, never mid-buffer.
  Result<Vector> Query(index_t seed, QueryStats* stats,
                       GmresWorkspace* workspace,
                       const QueryControl& control) const;
  Result<Vector> QueryVector(const Vector& q, QueryStats* stats,
                             GmresWorkspace* workspace,
                             const QueryControl& control) const;
  /// Coalesced multi-seed query: answers every item, streaming the Schur
  /// matrix ONCE per block-GMRES step for all seeds (sparse/kernel.hpp
  /// SpMM panels) instead of once per seed — the bandwidth amortization
  /// the serve batcher (server/server.hpp) is built on. Only the primary
  /// preconditioned GMRES hop is blocked; any seed whose column does not
  /// converge there (stagnation, NaN, cancellation, injected faults,
  /// breakdown) is transparently re-solved through the ordinary scalar
  /// Query path — its own degradation chain, its own QueryControl — so a
  /// misbehaving seed degrades alone and every returned vector is
  /// bit-identical to a solo Query of the same seed. Items with
  /// control.eps > 0 always solve alone: their truncated tolerance must
  /// not leak into the lockstep solve. The returned Status covers
  /// batch-level preconditions only; per-seed failures land in each
  /// MultiQueryResult::status.
  Status QueryMulti(const std::vector<MultiQueryItem>& items,
                    std::vector<MultiQueryResult>* results) const;
  /// Top-k query (core/topk.hpp): the dense Query — with control.eps set
  /// to opts.eps in eps mode — ranked by TopK(scores, opts.k,
  /// opts.exclude). Exact mode's entries are therefore byte-identical to
  /// sorting Query(seed). TopKResult::error_bound is stats->error_bound:
  /// 0 for an exact converged answer, else the honest per-score bound of
  /// the eps truncation, partial result or power/MC terminal stage.
  Result<TopKResult> QueryTopK(index_t seed, const TopKOptions& opts,
                               QueryStats* stats = nullptr,
                               GmresWorkspace* workspace = nullptr,
                               const QueryControl& control = {}) const;
  std::uint64_t PreprocessedBytes() const override;

  /// Arms the Monte-Carlo walk engine (engine/mc) as the terminal stage of
  /// the degradation chain: when every linear-algebra stage — including
  /// the global power fallback — has failed, the query is answered by
  /// simulating walks on the raw graph, with the estimate's confidence
  /// half-width recorded as the attempt's residual (the explicit error
  /// bound). The engine must be built over the same graph the model was
  /// preprocessed from (node counts are checked) and must outlive the
  /// solver. Pass nullptr to detach.
  Status AttachMcFallback(const McWalkEngine* engine,
                          McFallbackOptions options = {});
  const McWalkEngine* mc_fallback() const { return mc_; }

  const BepiPreprocessInfo& info() const { return info_; }
  const BepiOptions& options() const { return options_; }
  const HubSpokeDecomposition& decomposition() const { return dec_; }
  /// The ILU(0) preconditioner (present only in kPreconditioned mode).
  const Ilu0* preconditioner() const {
    return ilu_.has_value() ? &*ilu_ : nullptr;
  }
  /// The bound kernel layer (sparse/kernel.hpp): path, selection reason
  /// and the per-matrix views. Null before Preprocess/Load.
  const DecompositionKernels* kernels() const { return kernels_.get(); }
  real_t effective_hub_ratio() const { return effective_hub_ratio_; }

  /// Serializes the preprocessed model (options, partition, permutation
  /// and the query-phase matrices) as model format v4: checksummed
  /// sections of raw binary arrays (DESIGN.md "Model format v4").
  /// Preprocessing runs once and the model can then be shipped to query
  /// servers.
  Status Save(std::ostream& out) const;
  /// Save through an atomic temp-file + rename, inside a "model.save"
  /// trace span.
  Status SaveFile(const std::string& path) const;

  /// Restores a solver from Save's output (the rest of `in`). The ILU(0)
  /// preconditioner is recomputed from S (cheaper than shipping it; same
  /// O(|S|) cost).
  static Result<BepiSolver> Load(std::istream& in);
  /// Load of a whole file, inside a "model.load" trace span; a successful
  /// load sets the model.load_seconds gauge.
  static Result<BepiSolver> LoadFile(const std::string& path);

 private:
  /// Save/Load bodies; `sections` (may be null) receives the number of
  /// sections written or read, for the model.save/model.load spans.
  Status SaveSections(std::ostream& out, std::int64_t* sections) const;
  static Result<BepiSolver> LoadSections(std::string_view data,
                                         std::int64_t* sections);

  /// Runs Algorithm 4 given the already-partitioned scaled start vector
  /// (c*q sliced along [n1 | n2 | n3] in reordered ids).
  Result<Vector> SolveFromSlices(const Vector& cq1, const Vector& cq2,
                                 const Vector& cq3, QueryStats* stats,
                                 GmresWorkspace* workspace,
                                 const QueryControl& control) const;

  /// Shared eps-mode epilogue: computes the true Schur residual of `r2`
  /// against `q2_tilde` and returns the propagated sup-norm score bound.
  real_t EpsErrorBound(const Vector& q2_tilde, const Vector& r2) const;

  /// Cheap MC estimate of the hub slice used as the GMRES initial iterate
  /// (QueryControl::warm_start_mc). Returns false (x0 untouched) when no
  /// engine is attached or the estimate fails.
  bool McWarmStart(const Vector& cq1, const Vector& cq2, const Vector& cq3,
                   const QueryControl& control, Vector* x0) const;

  /// Tail of Load: recompute the ILU(0) preconditioner, invert the
  /// permutation, rebuild the structural info fields.
  Status FinalizeLoaded();
  /// Resolves --kernel/BEPI_KERNEL against the matrices, binds the
  /// DecompositionKernels views and the ILU(0) index width to that path,
  /// and publishes the model.kernel_path gauge. Runs at the end of
  /// Preprocess and of every Load.
  void BindQueryKernels();

  /// Stage 3: answers the query via the attached Monte-Carlo engine. `cq`
  /// is the scaled start vector in reordered ids; the returned scores are
  /// in ORIGINAL ids (the engine walks the raw graph). Appends the "mc"
  /// attempt (iterations = walks, residual = confidence half-width) to
  /// `report`.
  Result<Vector> McTerminalHop(const Vector& cq, QueryReport* report,
                               const QueryControl& control) const;

  BepiOptions options_;
  real_t effective_hub_ratio_ = 0.0;
  HubSpokeDecomposition dec_;
  std::optional<Ilu0> ilu_;
  /// Kernel views over dec_/ilu_. unique_ptr rather than a value so the
  /// solver stays movable without rebinding: the views point into vector
  /// heap buffers, which moves do not relocate.
  std::unique_ptr<DecompositionKernels> kernels_;
  /// Amplification factors of the eps error bounds (core/topk.hpp);
  /// rebuilt alongside the kernels in BindQueryKernels.
  TopKBoundTables bound_tables_;
  Permutation inverse_perm_;  // new -> old
  BepiPreprocessInfo info_;
  bool preprocessed_ = false;
  /// Terminal-stage walk engine (not owned; null = stage disarmed).
  const McWalkEngine* mc_ = nullptr;
  McFallbackOptions mc_fallback_options_;
};

}  // namespace bepi

#endif  // BEPI_CORE_BEPI_HPP_
