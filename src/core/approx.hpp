// Approximate RWR methods from the paper's related work (Section 5):
//  - ForwardPushSolver: local residual-push approximation in the spirit of
//    Andersen, Chung & Lang [1] / Gleich & Polito [17]. Work is local to
//    the seed's neighborhood; accuracy is controlled by a push threshold.
//  - RefreshRwrScores: forward push from a stale vector's defect.
// Monte Carlo estimation (Fogaras et al. / Bahmani et al. [4]) lives in
// engine/mc. The paper excludes approximate methods from its main
// comparison because they do not return exact scores;
// bench_approx_tradeoff quantifies that trade-off against BePI.
#ifndef BEPI_CORE_APPROX_HPP_
#define BEPI_CORE_APPROX_HPP_

#include "core/rwr.hpp"

namespace bepi {

struct ForwardPushOptions : RwrOptions {
  /// Residual threshold: pushing stops when every node's residual is
  /// below it. Controls the accuracy/work trade-off; the L1 error of the
  /// result is at most threshold * n (in practice far smaller).
  real_t push_threshold = 1e-7;
  /// Safety cap on push operations.
  index_t max_pushes = 100'000'000;
};

class ForwardPushSolver final : public RwrSolver {
 public:
  explicit ForwardPushSolver(ForwardPushOptions options) : options_(options) {}

  std::string name() const override { return "ForwardPush"; }
  Status Preprocess(const Graph& g) override;
  Result<Vector> Query(index_t seed, QueryStats* stats = nullptr) const override;
  Result<Vector> QueryVector(const Vector& q,
                             QueryStats* stats = nullptr) const override;
  std::uint64_t PreprocessedBytes() const override {
    return normalized_.ByteSize();
  }

 private:
  ForwardPushOptions options_;
  CsrMatrix normalized_;  // Ã (row-normalized, row-major for pushing)
};

/// Incrementally refreshes a stale RWR vector after the graph changed
/// (edges inserted/removed), without preprocessing or solving from
/// scratch. Writes the defect of `stale_scores` against the *new* graph's
/// system into a push residual and runs forward push from there — when the
/// change is small, the residual is local to the touched nodes and the
/// refresh costs a tiny fraction of a full query. The result satisfies the
/// same L1 error bound as ForwardPushSolver (threshold * n, typically far
/// smaller). `stale_scores` may come from any exact solver on the old
/// graph. This realizes the dynamic-graph usage the paper sketches in
/// Section 5 at query granularity.
Result<Vector> RefreshRwrScores(const Graph& new_graph, index_t seed,
                                const Vector& stale_scores,
                                const ForwardPushOptions& options,
                                QueryStats* stats = nullptr);

}  // namespace bepi

#endif  // BEPI_CORE_APPROX_HPP_
