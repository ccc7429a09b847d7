// The ablation knob: random hub selection as the SlashBurn control. It
// must stay exact; the benches quantify its performance difference.
#include <gtest/gtest.h>

#include "core/bepi.hpp"
#include "core/exact.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Ablation, RandomHubSelectionStaysExact) {
  Graph g = test::SmallRmat(120, 520, 0.2, 1321);
  RwrOptions base;
  ExactSolver exact(base);
  ASSERT_TRUE(exact.Preprocess(g).ok());
  BepiOptions options;
  options.hub_selection = SlashBurnOptions::HubSelection::kRandom;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  auto re = exact.Query(17);
  auto rb = solver.Query(17);
  ASSERT_TRUE(re.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_LT(DistL2(*re, *rb), 1e-6);
}

TEST(Ablation, DegreeHubsBeatRandomHubsOnSpokes) {
  // Degree-based hub removal shatters an R-MAT graph into more spokes per
  // removed hub than random removal does — the reason SlashBurn picks by
  // degree. Compare n1 at equal k.
  Graph g = test::SmallRmat(500, 2400, 0.0, 1327);
  SlashBurnOptions degree_options;
  degree_options.k_ratio = 0.1;
  auto degree = SlashBurn(g.adjacency(), degree_options);
  ASSERT_TRUE(degree.ok());
  SlashBurnOptions random_options = degree_options;
  random_options.hub_selection = SlashBurnOptions::HubSelection::kRandom;
  auto random = SlashBurn(g.adjacency(), random_options);
  ASSERT_TRUE(random.ok());
  EXPECT_GT(degree->num_spokes, random->num_spokes);
}

TEST(Ablation, RandomSelectionIsSeededDeterministic) {
  Graph g = test::SmallRmat(200, 800, 0.0, 1361);
  SlashBurnOptions options;
  options.hub_selection = SlashBurnOptions::HubSelection::kRandom;
  options.random_seed = 9;
  auto a = SlashBurn(g.adjacency(), options);
  auto b = SlashBurn(g.adjacency(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->perm, b->perm);
  options.random_seed = 10;
  auto c = SlashBurn(g.adjacency(), options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->perm, c->perm);
}

}  // namespace
}  // namespace bepi
