// Batched query execution: N independent RWR seeds answered concurrently
// over the process-global thread pool (common/parallel.hpp).
//
// Each concurrency slot owns one GmresWorkspace, so a steady-state batch
// loop performs no per-query heap allocation beyond the returned vectors.
// Queries are read-only over the preprocessed model and fully independent,
// which makes the parallelization embarrassingly simple — and because the
// numeric kernels are bit-identical at any thread count, a batch produces
// exactly the vectors a sequential loop over the same seeds would.
#ifndef BEPI_CORE_BATCH_HPP_
#define BEPI_CORE_BATCH_HPP_

#include <string>
#include <vector>

#include "core/bepi.hpp"

namespace bepi {

struct BatchQueryOptions {
  /// Upper bound on queries in flight. 0 means the ParallelContext thread
  /// count (i.e. --threads / BEPI_THREADS). With 1 effective slot the
  /// batch runs as a plain sequential loop on the calling thread.
  int max_concurrency = 0;
  /// Collect one QueryStats per seed into BatchQueryResult::stats.
  bool collect_stats = true;
  /// Cooperative cancellation, checked between queries and forwarded into
  /// each solve. An expired token fails the batch with the token's Status
  /// (batches are all-or-nothing; partial batch results are never
  /// returned). May be null.
  const CancelToken* cancel = nullptr;
  /// Batch-wide top-k execution (core/topk.hpp). topk.k == 0 (default)
  /// answers densely and fills BatchQueryResult::vectors; topk.k >= 1
  /// runs every seed through BepiSolver::QueryTopK with these options
  /// and fills BatchQueryResult::topk instead, leaving vectors empty.
  /// Each seed is left out of its own ranking (topk.exclude is replaced
  /// by the seed), as the serve path's top-k replies do.
  TopKOptions topk;
  /// Forwarded into every query's QueryControl::warm_start_mc (seed the
  /// Schur solve from the attached MC engine; off by default — a warm
  /// start changes the iterate sequence, so the bit-identity contract
  /// only holds on the default path).
  bool warm_start_mc = false;
};

struct BatchQueryResult {
  /// vectors[i] is the RWR vector for seeds[i] (positional order is
  /// preserved regardless of completion order). Empty in top-k mode.
  std::vector<Vector> vectors;
  /// topk[i] is the ranked answer for seeds[i] when options.topk.k >= 1.
  std::vector<TopKResult> topk;
  std::vector<QueryStats> stats;  // empty when collect_stats is false
  double seconds = 0.0;           // wall time for the whole batch
  double throughput_qps() const {
    const std::size_t queries = vectors.empty() ? topk.size() : vectors.size();
    return seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  }
};

/// Runs batches of seed queries against one preprocessed solver. The
/// solver must outlive the engine and stay unmodified while Run executes;
/// the engine itself is stateless across Run calls and safe to reuse.
class BatchQueryEngine {
 public:
  explicit BatchQueryEngine(const BepiSolver& solver,
                            BatchQueryOptions options = {});

  /// Answers every seed. On any per-query failure the whole batch fails
  /// with the first error in seed order (partial results are discarded —
  /// a batch is all-or-nothing so callers never pair vectors with the
  /// wrong seeds).
  Result<BatchQueryResult> Run(const std::vector<index_t>& seeds) const;

 private:
  const BepiSolver& solver_;
  BatchQueryOptions options_;
};

/// Parses a seeds file: one node id per line, blank lines and
/// '#'-prefixed comments ignored. Used by `bepi_cli query --seeds-file`.
Result<std::vector<index_t>> ReadSeedsFile(const std::string& path);

}  // namespace bepi

#endif  // BEPI_CORE_BATCH_HPP_
