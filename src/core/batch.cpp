#include "core/batch.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "solver/gmres.hpp"

namespace bepi {

BatchQueryEngine::BatchQueryEngine(const BepiSolver& solver,
                                   BatchQueryOptions options)
    : solver_(solver), options_(options) {}

Result<BatchQueryResult> BatchQueryEngine::Run(
    const std::vector<index_t>& seeds) const {
  Timer timer;
  TraceSpan batch_span("query.batch");

  const bool topk_mode = options_.topk.k > 0;
  BatchQueryResult result;
  if (topk_mode) {
    result.topk.resize(seeds.size());
  } else {
    result.vectors.resize(seeds.size());
  }
  if (options_.collect_stats) result.stats.resize(seeds.size());

  // Duplicate seeds solve once: an RWR query is a pure function of
  // (model, seed), so later occurrences reuse the first occurrence's
  // result instead of re-streaming the matrices — the same key identity
  // the serve-path score cache (server/cache.hpp) is built on. Solving
  // runs over the deduplicated list; the fan-out below copies each unique
  // result into every requesting position.
  std::vector<index_t> unique_seeds;
  std::vector<std::size_t> unique_of(seeds.size());
  std::vector<index_t> first_occurrence;
  {
    std::unordered_map<index_t, std::size_t> seen;
    seen.reserve(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const auto [it, inserted] = seen.emplace(seeds[i], unique_seeds.size());
      if (inserted) {
        unique_seeds.push_back(seeds[i]);
        first_occurrence.push_back(static_cast<index_t>(i));
      }
      unique_of[i] = it->second;
    }
  }
  const index_t n = static_cast<index_t>(unique_seeds.size());
  std::vector<Vector> unique_vectors(topk_mode ? 0 : unique_seeds.size());
  std::vector<TopKResult> unique_topk(topk_mode ? unique_seeds.size() : 0);
  std::vector<QueryStats> unique_stats(
      options_.collect_stats ? unique_seeds.size() : 0);

  ThreadPool* pool = ParallelContext::Global().pool();
  index_t slots = options_.max_concurrency > 0
                      ? static_cast<index_t>(options_.max_concurrency)
                      : static_cast<index_t>(
                            ParallelContext::Global().num_threads());
  slots = std::clamp<index_t>(slots, 1, std::max<index_t>(n, 1));
  if (pool == nullptr) slots = 1;

  // One workspace per concurrency slot: slot s answers the contiguous
  // seed range [s*n/slots, (s+1)*n/slots) reusing its own scratch, so the
  // steady state allocates nothing per query.
  std::vector<GmresWorkspace> workspaces(static_cast<std::size_t>(slots));

  // First failure in *seed order* wins, independent of completion order,
  // so a batch fails deterministically.
  std::mutex error_mutex;
  index_t error_index = std::numeric_limits<index_t>::max();
  Status error = Status::Ok();

  auto run_slot = [&](index_t slot) {
    const index_t begin = slot * n / slots;
    const index_t end = (slot + 1) * n / slots;
    GmresWorkspace& ws = workspaces[static_cast<std::size_t>(slot)];
    QueryControl control;
    control.cancel = options_.cancel;
    control.warm_start_mc = options_.warm_start_mc;
    for (index_t u = begin; u < end; ++u) {
      const std::size_t idx = static_cast<std::size_t>(u);
      // Failures report the unique seed's first occurrence so the
      // "first failure in seed order" contract survives deduplication
      // (every occurrence of a failing seed would fail identically).
      const index_t orig = first_occurrence[idx];
      if (options_.cancel != nullptr && options_.cancel->Expired()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (orig < error_index) {
          error_index = orig;
          error = options_.cancel->ToStatus("batch query");
        }
        return;
      }
      QueryStats* stats =
          options_.collect_stats ? &unique_stats[idx] : nullptr;
      if (topk_mode) {
        TopKOptions topk = options_.topk;
        topk.exclude = unique_seeds[idx];
        Result<TopKResult> r =
            solver_.QueryTopK(unique_seeds[idx], topk, stats, &ws, control);
        if (!r.ok()) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (orig < error_index) {
            error_index = orig;
            error = r.status();
          }
          return;  // abandon this slot's remaining seeds
        }
        unique_topk[idx] = std::move(r).value();
        continue;
      }
      Result<Vector> r = solver_.Query(unique_seeds[idx], stats, &ws, control);
      if (!r.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (orig < error_index) {
          error_index = orig;
          error = r.status();
        }
        return;  // abandon this slot's remaining seeds
      }
      unique_vectors[idx] = std::move(r).value();
    }
  };

  if (slots == 1) {
    run_slot(0);
  } else {
    TaskGroup group(pool);
    for (index_t s = 0; s < slots; ++s) {
      group.Run([&run_slot, s] { run_slot(s); });
    }
    // A query that *throws* (e.g. an injected fault escaping as an
    // exception rather than a Status) is rethrown here by Wait; convert
    // it so batch callers always see a clean Status.
    try {
      group.Wait();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("batch query worker threw: ") +
                              e.what());
    }
  }

  if (error_index != std::numeric_limits<index_t>::max()) {
    return Status(error.code(), "batch query failed at seed index " +
                                    std::to_string(error_index) + ": " +
                                    error.message());
  }

  // Fan the unique results out to every requesting position.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::size_t u = unique_of[i];
    if (topk_mode) {
      result.topk[i] = unique_topk[u];
    } else {
      result.vectors[i] = unique_vectors[u];
    }
    if (options_.collect_stats) result.stats[i] = unique_stats[u];
  }

  result.seconds = timer.Seconds();
  batch_span.Arg("seeds", static_cast<index_t>(seeds.size()));
  batch_span.Arg("unique_seeds", n);
  batch_span.Arg("slots", slots);
  return result;
}

Result<std::vector<index_t>> ReadSeedsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open seeds file: " + path);
  std::vector<index_t> seeds;
  std::string line;
  index_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    index_t seed = 0;
    if (!(ls >> seed)) {
      // Blank or comment-only line.
      std::string rest;
      ls.clear();
      ls >> rest;
      if (rest.empty()) continue;
      return Status::InvalidArgument("seeds file " + path + " line " +
                                     std::to_string(line_no) +
                                     ": expected an integer node id");
    }
    std::string trailing;
    if (ls >> trailing) {
      return Status::InvalidArgument("seeds file " + path + " line " +
                                     std::to_string(line_no) +
                                     ": trailing content after seed");
    }
    seeds.push_back(seed);
  }
  return seeds;
}

}  // namespace bepi
