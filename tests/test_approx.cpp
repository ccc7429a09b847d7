// Approximate RWR methods (forward push, Monte-Carlo walks) vs the exact
// solution: accuracy bounds, parameter monotonicity, error paths.
#include <gtest/gtest.h>

#include "core/approx.hpp"
#include "core/exact.hpp"
#include "engine/mc/mc.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(ForwardPush, ApproachesExactAsThresholdShrinks) {
  Graph g = test::SmallRmat(120, 550, 0.2, 1217);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  auto r_exact = exact.Query(9);
  ASSERT_TRUE(r_exact.ok());

  real_t prev_error = 1e9;
  for (real_t threshold : {1e-3, 1e-5, 1e-8}) {
    ForwardPushOptions options;
    options.push_threshold = threshold;
    ForwardPushSolver solver(options);
    ASSERT_TRUE(solver.Preprocess(g).ok());
    auto r = solver.Query(9);
    ASSERT_TRUE(r.ok());
    const real_t error = Norm1([&] {
      Vector d = *r;
      Axpy(-1.0, *r_exact, &d);
      return d;
    }());
    EXPECT_LE(error, prev_error + 1e-12);
    // L1 error bound: sum of leftover residuals < threshold * n.
    EXPECT_LE(error, threshold * 120);
    prev_error = error;
  }
  EXPECT_LT(prev_error, 1e-5);
}

TEST(ForwardPush, UnderestimatesEverywhere) {
  // p only accumulates pushed mass, so p <= r entrywise.
  Graph g = test::SmallRmat(100, 400, 0.2, 1223);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  ForwardPushOptions options;
  options.push_threshold = 1e-4;
  ForwardPushSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto r_exact = exact.Query(3);
  auto r_push = solver.Query(3);
  ASSERT_TRUE(r_exact.ok());
  ASSERT_TRUE(r_push.ok());
  for (std::size_t i = 0; i < r_push->size(); ++i) {
    EXPECT_LE((*r_push)[i], (*r_exact)[i] + 1e-12);
    EXPECT_GE((*r_push)[i], 0.0);
  }
}

TEST(ForwardPush, WorkIsLocalForTightCommunities) {
  // On a planted-partition graph, a moderate threshold confines pushes to
  // roughly the seed's community rather than the whole graph.
  Rng rng(1229);
  PlantedPartitionOptions pp;
  pp.num_communities = 10;
  pp.community_size = 50;
  pp.p_intra = 0.2;
  pp.p_inter = 0.0002;
  auto g = GeneratePlantedPartition(pp, &rng);
  ASSERT_TRUE(g.ok());
  ForwardPushOptions options;
  options.push_threshold = 1e-3;
  ForwardPushSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  QueryStats stats;
  auto r = solver.Query(7, &stats);
  ASSERT_TRUE(r.ok());
  // Touched nodes (nonzero estimate) should be far fewer than n.
  index_t touched = 0;
  for (real_t v : *r) {
    if (v > 0.0) ++touched;
  }
  EXPECT_LT(touched, 300);  // < 60% of the 500 nodes
  EXPECT_GT(stats.iterations, 0);
}

TEST(ForwardPush, DeadendSeed) {
  auto g = Graph::FromEdges(3, {{0, 1}});
  ASSERT_TRUE(g.ok());
  ForwardPushSolver solver(ForwardPushOptions{});
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  auto r = solver.Query(1);  // node 1 is a deadend
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR((*r)[1], 0.05, 1e-12);
  EXPECT_DOUBLE_EQ((*r)[0], 0.0);
}

TEST(ForwardPush, ErrorPaths) {
  ForwardPushSolver solver(ForwardPushOptions{});
  EXPECT_FALSE(solver.Query(0).ok());
  Graph g = test::SmallRmat(30, 120, 0.1, 1231);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  EXPECT_FALSE(solver.Query(-1).ok());
  EXPECT_FALSE(solver.Query(30).ok());
  EXPECT_FALSE(solver.QueryVector(Vector(10, 0.0)).ok());
  ForwardPushOptions bad;
  bad.push_threshold = 0.0;
  ForwardPushSolver rejects(bad);
  EXPECT_FALSE(rejects.Preprocess(g).ok());
}

McOptions Walks(std::uint64_t walks) {
  McOptions options;
  options.walks = walks;
  return options;
}

TEST(MonteCarlo, ConvergesInDistribution) {
  Graph g = test::SmallRmat(60, 280, 0.1, 1237);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  auto r_exact = exact.Query(5);
  ASSERT_TRUE(r_exact.ok());

  McWalkEngine engine(g);
  auto est = engine.EstimateSeed(5, Walks(200000));
  ASSERT_TRUE(est.ok());
  // L-infinity error of a multinomial estimate with 2e5 samples.
  Vector diff = est->scores;
  Axpy(-1.0, *r_exact, &diff);
  EXPECT_LT(NormInf(diff), 0.01);
  EXPECT_GT(est->total_steps, est->walks_completed);  // steps > walks
}

TEST(MonteCarlo, MoreWalksReduceError) {
  Graph g = test::SmallRmat(50, 220, 0.1, 1249);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  auto r_exact = exact.Query(2);
  ASSERT_TRUE(r_exact.ok());
  McWalkEngine engine(g);
  real_t coarse_error = 0.0, fine_error = 0.0;
  for (auto [walks, out] :
       {std::pair<std::uint64_t, real_t*>{500, &coarse_error},
        std::pair<std::uint64_t, real_t*>{100000, &fine_error}}) {
    auto est = engine.EstimateSeed(2, Walks(walks));
    ASSERT_TRUE(est.ok());
    Vector diff = est->scores;
    Axpy(-1.0, *r_exact, &diff);
    *out = Norm2(diff);
  }
  EXPECT_LT(fine_error, coarse_error);
}

TEST(MonteCarlo, EstimateIsADistributionUpToDeadendLeak) {
  Graph g = test::SmallRmat(80, 320, 0.3, 1259);
  McWalkEngine engine(g);
  auto est = engine.EstimateSeed(1, Walks(20000));
  ASSERT_TRUE(est.ok());
  for (real_t v : est->scores) EXPECT_GE(v, 0.0);
  EXPECT_LE(Norm1(est->scores), 1.0 + 1e-12);
}

TEST(MonteCarlo, DeterministicPerSeedOption) {
  Graph g = test::SmallRmat(40, 160, 0.1, 1277);
  McWalkEngine a(g), b(g);
  auto r1 = a.EstimateSeed(3, Walks(5000));
  auto r2 = b.EstimateSeed(3, Walks(5000));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->scores, r2->scores);
}

TEST(MonteCarlo, PersonalizedVector) {
  Graph g = test::SmallRmat(60, 260, 0.1, 1279);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  auto q = PersonalizationVector(60, {{0, 1.0}, {30, 1.0}});
  ASSERT_TRUE(q.ok());
  auto expected = exact.QueryVector(*q);
  ASSERT_TRUE(expected.ok());
  McWalkEngine engine(g);
  auto est = engine.EstimateVector(*q, Walks(200000));
  ASSERT_TRUE(est.ok());
  Vector diff = est->scores;
  Axpy(-1.0, *expected, &diff);
  EXPECT_LT(NormInf(diff), 0.01);
}

TEST(MonteCarlo, ErrorPaths) {
  Graph g = test::SmallRmat(30, 120, 0.1, 1283);
  McWalkEngine engine(g);
  const McOptions options = Walks(1000);
  EXPECT_FALSE(engine.EstimateSeed(30, options).ok());
  EXPECT_FALSE(engine.EstimateSeed(-1, options).ok());
  EXPECT_FALSE(engine.EstimateVector(Vector(5, 0.1), options).ok());
  EXPECT_FALSE(engine.EstimateVector(Vector(30, 0.0), options).ok());
  Vector negative(30, 0.0);
  negative[2] = -1.0;
  EXPECT_FALSE(engine.EstimateVector(negative, options).ok());
  EXPECT_FALSE(engine.EstimateSeed(0, Walks(0)).ok());
}

}  // namespace
}  // namespace bepi
