#include "core/approx.hpp"

#include <cmath>
#include <queue>
#include <utility>

#include "common/timer.hpp"

namespace bepi {

Status ForwardPushSolver::Preprocess(const Graph& g) {
  Timer timer;
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  if (options_.push_threshold <= 0.0) {
    return Status::InvalidArgument("push threshold must be positive");
  }
  normalized_ = g.RowNormalizedAdjacency();
  preprocess_seconds_ = timer.Seconds();
  return Status::Ok();
}

Result<Vector> ForwardPushSolver::Query(index_t seed,
                                        QueryStats* stats) const {
  const index_t n = normalized_.rows();
  if (n == 0) return Status::FailedPrecondition("Preprocess not called");
  if (seed < 0 || seed >= n) return Status::OutOfRange("seed out of range");
  return QueryVector(StartingVector(n, seed), stats);
}

namespace {

/// The forward-push core, shared by the solver and the incremental
/// refresh. Invariant maintained by each push:
///   r_exact = p + sum_u res[u] * rwr(u)
/// where rwr(u) is the exact RWR vector seeded at u (||rwr(u)||_1 <= 1).
/// Residual mass may be signed (refresh after edge deletions pushes
/// negative corrections); the loop stops once every |res[u]| <= threshold,
/// leaving an L1 defect of at most threshold * n.
Result<index_t> RunPushLoop(const CsrMatrix& normalized, real_t c,
                            real_t threshold, index_t max_pushes, Vector* p,
                            Vector* res) {
  const index_t n = normalized.rows();
  // Largest-residual-first order: draining the biggest mass before it can
  // scatter keeps each node's residual from re-crossing the threshold
  // many times, which substantially reduces total pushes compared to FIFO
  // rounds (and makes warm-started refreshes genuinely cheap). The heap
  // uses lazy keys: entries are not updated in place; a node is re-pushed
  // when its residual grows while unqueued, and stale magnitudes are
  // re-read at pop time.
  std::priority_queue<std::pair<real_t, index_t>> heap;
  std::vector<bool> queued(static_cast<std::size_t>(n), false);
  for (index_t u = 0; u < n; ++u) {
    const real_t mass = (*res)[static_cast<std::size_t>(u)];
    if (std::fabs(mass) > threshold) {
      heap.emplace(std::fabs(mass), u);
      queued[static_cast<std::size_t>(u)] = true;
    }
  }
  index_t pushes = 0;
  while (!heap.empty()) {
    const index_t u = heap.top().second;
    heap.pop();
    queued[static_cast<std::size_t>(u)] = false;
    const real_t mass = (*res)[static_cast<std::size_t>(u)];
    if (std::fabs(mass) <= threshold) continue;
    if (++pushes > max_pushes) {
      return Status::NotConverged("forward push exceeded its push budget");
    }
    (*res)[static_cast<std::size_t>(u)] = 0.0;
    (*p)[static_cast<std::size_t>(u)] += c * mass;
    // Distribute (1-c)*mass over out-neighbors; at a deadend the walk
    // mass is lost, matching H's treatment of zero rows.
    const real_t spread = (1.0 - c) * mass;
    for (index_t pos = normalized.row_ptr()[static_cast<std::size_t>(u)];
         pos < normalized.row_ptr()[static_cast<std::size_t>(u) + 1]; ++pos) {
      const index_t v = normalized.col_idx()[static_cast<std::size_t>(pos)];
      const real_t updated =
          ((*res)[static_cast<std::size_t>(v)] +=
           spread * normalized.values()[static_cast<std::size_t>(pos)]);
      if (std::fabs(updated) > threshold && !queued[static_cast<std::size_t>(v)]) {
        heap.emplace(std::fabs(updated), v);
        queued[static_cast<std::size_t>(v)] = true;
      }
    }
  }
  return pushes;
}

}  // namespace

Result<Vector> ForwardPushSolver::QueryVector(const Vector& q,
                                              QueryStats* stats) const {
  const index_t n = normalized_.rows();
  if (n == 0) return Status::FailedPrecondition("Preprocess not called");
  if (static_cast<index_t>(q.size()) != n) {
    return Status::InvalidArgument("personalization vector length mismatch");
  }
  Timer timer;
  Vector p(static_cast<std::size_t>(n), 0.0);
  Vector res = q;
  BEPI_ASSIGN_OR_RETURN(
      index_t pushes,
      RunPushLoop(normalized_, options_.restart_prob, options_.push_threshold,
                  options_.max_pushes, &p, &res));
  if (stats != nullptr) {
    *stats = QueryStats();
    stats->seconds = timer.Seconds();
    stats->iterations = pushes;
    stats->total_iterations = pushes;
  }
  return p;
}

Result<Vector> RefreshRwrScores(const Graph& new_graph, index_t seed,
                                const Vector& stale_scores,
                                const ForwardPushOptions& options,
                                QueryStats* stats) {
  const index_t n = new_graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (static_cast<index_t>(stale_scores.size()) != n) {
    return Status::InvalidArgument(
        "stale score vector length mismatch (node additions need a resized "
        "vector padded with zeros)");
  }
  if (seed < 0 || seed >= n) return Status::OutOfRange("seed out of range");
  if (options.push_threshold <= 0.0) {
    return Status::InvalidArgument("push threshold must be positive");
  }
  Timer timer;
  const real_t c = options.restart_prob;
  const CsrMatrix normalized = new_graph.RowNormalizedAdjacency();

  // Defect of the stale estimate against the NEW system, in push units:
  // r_new = p + sum_u res[u] * rwr_new(u) with p = stale_scores and
  // res = (c q - H_new p) / c = q - (p - (1-c) Ã_new^T p) / c.
  Vector p = stale_scores;
  Vector res = normalized.MultiplyTranspose(p);
  for (index_t u = 0; u < n; ++u) {
    res[static_cast<std::size_t>(u)] =
        ((1.0 - c) * res[static_cast<std::size_t>(u)] -
         p[static_cast<std::size_t>(u)]) /
        c;
  }
  res[static_cast<std::size_t>(seed)] += 1.0;

  BEPI_ASSIGN_OR_RETURN(
      index_t pushes,
      RunPushLoop(normalized, c, options.push_threshold, options.max_pushes,
                  &p, &res));
  if (stats != nullptr) {
    *stats = QueryStats();
    stats->seconds = timer.Seconds();
    stats->iterations = pushes;
    stats->total_iterations = pushes;
  }
  return p;
}

}  // namespace bepi
