// Exact top-k and the bounded-error (eps) query mode: byte-for-byte
// parity with the sorted dense solve across kernel paths and thread
// counts, eps-bound honesty against the exact solution, coalescing rules
// in QueryMulti, and tie determinism at the k boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "core/batch.hpp"
#include "core/bepi.hpp"
#include "core/topk.hpp"
#include "engine/mc/mc.hpp"
#include "sparse/kernel.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// %.17g rendering — the CLI's dump format, where "byte-identical" is
/// defined for the exact-mode parity contract.
std::string Fmt(real_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class TopKTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGlobalKernelPath(KernelPath::kAuto);
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
  }
};

TEST_F(TopKTest, ExactParityAcrossKernelPathsAndThreads) {
  const Graph g = test::SmallRmat(300, 1800, 0.15, 11);
  // Reference: dense solve on the default configuration, sorted.
  std::vector<std::pair<index_t, real_t>> expect;
  {
    BepiSolver solver{BepiOptions{}};
    ASSERT_TRUE(solver.Preprocess(g).ok());
    const auto dense = solver.Query(5);
    ASSERT_TRUE(dense.ok());
    expect = TopK(*dense, 25);
  }
  for (KernelPath path : {KernelPath::kCompact, KernelPath::kWide}) {
    SetGlobalKernelPath(path);
    BepiSolver solver{BepiOptions{}};
    ASSERT_TRUE(solver.Preprocess(g).ok());
    for (int threads : {1, 4}) {
      ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
      TopKOptions opts;
      opts.k = 25;
      const auto got = solver.QueryTopK(5, opts);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->entries.size(), expect.size());
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got->entries[i].first, expect[i].first)
            << "path=" << KernelPathName(path) << " threads=" << threads
            << " rank=" << i;
        EXPECT_EQ(Fmt(got->entries[i].second), Fmt(expect[i].second))
            << "path=" << KernelPathName(path) << " threads=" << threads
            << " rank=" << i;
      }
    }
  }
}

TEST_F(TopKTest, InvalidKAndEpsAreRejectedByName) {
  const Graph g = test::SmallRmat(60, 250, 0.1, 3);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  TopKOptions opts;
  opts.k = 0;
  auto r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("top_k"), std::string::npos);
  opts.k = 1000;  // > n
  r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  opts.k = 5;
  opts.mode = TopKMode::kEps;
  opts.eps = 0.0;
  r = solver.QueryTopK(1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("eps"), std::string::npos);
  opts.eps = -1.0;
  EXPECT_FALSE(solver.QueryTopK(1, opts).ok());
}

TEST_F(TopKTest, EpsBoundIsHonestAgainstExactSolution) {
  const Graph g = test::SmallRmat(250, 1200, 0.2, 13);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  for (index_t seed : {2, 50, 120}) {
    const auto exact = solver.Query(seed);
    ASSERT_TRUE(exact.ok());
    TopKOptions opts;
    opts.k = 10;
    opts.mode = TopKMode::kEps;
    opts.eps = 1e-4;
    QueryStats stats;
    const auto got = solver.QueryTopK(seed, opts, &stats);
    ASSERT_TRUE(got.ok());
    ASSERT_GT(got->error_bound, 0.0);
    EXPECT_EQ(stats.error_bound, got->error_bound);
    // Every returned score is within the reported bound of the truth.
    // (The exact reference itself is converged far below eps.)
    for (const auto& [node, score] : got->entries) {
      EXPECT_LE(std::abs(score - (*exact)[static_cast<std::size_t>(node)]),
                got->error_bound)
          << "seed " << seed << " node " << node;
    }
  }
}

TEST_F(TopKTest, TieAtBoundaryIsDeterministicById) {
  // A graph with symmetric structure produces genuinely tied scores; the
  // contract is the TopK comparator's: score descending, id ascending.
  const Graph g = test::PaperExampleGraph();
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const auto dense = solver.Query(0);
  ASSERT_TRUE(dense.ok());
  for (index_t k = 1; k <= 8; ++k) {
    const auto expect = TopK(*dense, k);
    TopKOptions opts;
    opts.k = k;
    const auto got = solver.QueryTopK(0, opts);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->entries.size(), expect.size()) << "k=" << k;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got->entries[i].first, expect[i].first) << "k=" << k;
      EXPECT_EQ(got->entries[i].second, expect[i].second) << "k=" << k;
    }
  }
}

TEST_F(TopKTest, ExcludeSeedMatchesDenseExclusion) {
  const Graph g = test::SmallRmat(200, 900, 0.15, 29);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  const auto dense = solver.Query(9);
  ASSERT_TRUE(dense.ok());
  const auto expect = TopK(*dense, 12, /*exclude=*/9);
  TopKOptions opts;
  opts.k = 12;
  opts.exclude = 9;
  const auto got = solver.QueryTopK(9, opts);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->entries.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got->entries[i].first, expect[i].first);
    EXPECT_EQ(got->entries[i].second, expect[i].second);
    EXPECT_NE(got->entries[i].first, 9);
  }
}

TEST_F(TopKTest, BatchTopKLeavesEachSeedOutOfItsRanking) {
  const Graph g = test::SmallRmat(200, 900, 0.15, 29);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  BatchQueryOptions options;
  options.topk.k = 12;
  const std::vector<index_t> seeds = {9, 4, 9, 150};
  auto batch = BatchQueryEngine(solver, options).Run(seeds);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->topk.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto dense = solver.Query(seeds[i]);
    ASSERT_TRUE(dense.ok());
    EXPECT_EQ(batch->topk[i].entries, TopK(*dense, 12, seeds[i]))
        << "seed " << seeds[i];
  }
}

TEST_F(TopKTest, QueryMultiMixesTopKAndDenseColumns) {
  const Graph g = test::SmallRmat(300, 1500, 0.2, 17);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  // Exact top-k is a dense column ranked afterwards, so it coalesces with
  // the dense items; an eps item (truncated tolerance) must solve alone.
  QueryControl eps_control;
  eps_control.eps = 1e-5;
  const std::vector<MultiQueryItem> items = {
      {3, QueryControl{}},   {41, QueryControl{}}, {77, QueryControl{}},
      {120, eps_control},    {200, QueryControl{}}};
  constexpr std::size_t kEpsItem = 3;
  std::vector<MultiQueryResult> results;
  ASSERT_TRUE(solver.QueryMulti(items, &results).ok());
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    ASSERT_TRUE(results[j].status.ok()) << "item " << j;
    // Bit-identical to a solo Query with the item's own controls.
    QueryStats solo_stats;
    const auto solo =
        solver.Query(items[j].seed, &solo_stats, nullptr, items[j].control);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(results[j].scores, *solo) << "item " << j;
    EXPECT_EQ(results[j].stats.error_bound, solo_stats.error_bound)
        << "item " << j;
    if (j == kEpsItem) continue;
    EXPECT_TRUE(results[j].coalesced) << "item " << j;
    EXPECT_EQ(results[j].stats.error_bound, 0.0) << "item " << j;
    // The exact top-k of a coalesced column is the solo QueryTopK answer.
    TopKOptions opts;
    opts.k = 8;
    opts.exclude = items[j].seed;
    const auto topk = solver.QueryTopK(items[j].seed, opts);
    ASSERT_TRUE(topk.ok());
    EXPECT_EQ(TopK(results[j].scores, opts.k, opts.exclude), topk->entries)
        << "item " << j;
  }
  // The eps item solved alone and carries a bound honest against the
  // exact solve.
  const MultiQueryResult& eps = results[kEpsItem];
  EXPECT_FALSE(eps.coalesced);
  EXPECT_GT(eps.stats.error_bound, 0.0);
  const auto exact = solver.Query(items[kEpsItem].seed);
  ASSERT_TRUE(exact.ok());
  for (std::size_t i = 0; i < exact->size(); ++i) {
    EXPECT_LE(std::abs(eps.scores[i] - (*exact)[i]), eps.stats.error_bound)
        << "node " << i;
  }
}

TEST_F(TopKTest, McWarmStartMatchesDefaultAnswerWithinTolerance) {
  const Graph g = test::SmallRmat(250, 1200, 0.2, 19);
  BepiOptions options;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  McWalkEngine mc(g);
  ASSERT_TRUE(solver.AttachMcFallback(&mc, McFallbackOptions{}).ok());
  const auto cold = solver.Query(33);
  ASSERT_TRUE(cold.ok());
  QueryControl ctl;
  ctl.warm_start_mc = true;
  QueryStats stats;
  const auto warm = solver.Query(33, &stats, nullptr, ctl);
  ASSERT_TRUE(warm.ok());
  // Different iterate sequence, same converged answer up to tolerance.
  real_t max_diff = 0.0;
  for (std::size_t i = 0; i < cold->size(); ++i) {
    max_diff = std::max(max_diff, std::abs((*cold)[i] - (*warm)[i]));
  }
  EXPECT_LT(max_diff, 1e-7);
  // And with the control off the path is untouched (bit identity).
  const auto again = solver.Query(33);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cold);
}

TEST_F(TopKTest, DenseFallbackStillAnswersWithBound) {
  // Stall the primary GMRES hop: the query falls to the power stage, and
  // the top-k answer still carries an explicit bound.
  const Graph g = test::SmallRmat(250, 1200, 0.2, 13);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_GT(solver.info().n2, 0) << "graph must decompose with hubs";
  // Pick a seed whose Schur solve actually iterates: a deadend (or a
  // spoke block disconnected from the hubs) has q2~ = 0 and exits before
  // any fault site, which would leave nothing to degrade.
  index_t seed = -1;
  for (index_t s = 0; s < 250; ++s) {
    QueryStats probe;
    ASSERT_TRUE(solver.Query(s, &probe).ok());
    if (probe.iterations > 0) {
      seed = s;
      break;
    }
  }
  ASSERT_GE(seed, 0);
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate);
  TopKOptions opts;
  opts.k = 6;
  opts.mode = TopKMode::kEps;
  opts.eps = 1e-3;
  QueryStats stats;
  const auto got = solver.QueryTopK(seed, opts, &stats);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->entries.size(), 6u);
  EXPECT_EQ(stats.report.attempts.back().stage, "power");
  EXPECT_GT(got->error_bound, 0.0);
  // The faulted-stage answer still matches a clean dense solve's top-k
  // node set within the reported bound.
  const auto clean = solver.Query(seed);
  ASSERT_TRUE(clean.ok());
  for (const auto& [node, score] : got->entries) {
    EXPECT_LE(std::abs(score - (*clean)[static_cast<std::size_t>(node)]),
              got->error_bound + 1e-9);
  }
}

}  // namespace
}  // namespace bepi
