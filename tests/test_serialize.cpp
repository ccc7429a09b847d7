// Save/Load round-trips of the preprocessed BePI model.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/sections.hpp"
#include "core/bepi.hpp"
#include "sparse/io.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// A framed model stream holding only the "options", "sizes" and "perm"
/// sections with the given partition sizes and permutation.
std::string StreamWithPartition(const std::vector<index_t>& sizes,
                                const std::vector<index_t>& perm) {
  std::ostringstream out;
  SectionWriter writer(out, "BEPI-MODEL v4");
  EXPECT_TRUE(writer.Add("options", "2 0.05 1e-9 100 100 0.2\n").ok());
  EXPECT_TRUE(writer.Add("sizes", EncodeIndexVector(sizes)).ok());
  EXPECT_TRUE(writer.Add("perm", EncodeIndexVector(perm)).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST(Serialize, RoundTripPreservesQueries) {
  Graph g = test::SmallRmat(150, 650, 0.25, 1039);
  BepiOptions options;
  options.mode = BepiMode::kPreconditioned;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());

  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  auto loaded = BepiSolver::Load(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (index_t seed : {0, 42, 149}) {
    auto r1 = original.Query(seed);
    auto r2 = loaded->Query(seed);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_LT(DistL2(*r1, *r2), 1e-12) << "seed " << seed;
  }
}

TEST(Serialize, RoundTripAllModes) {
  Graph g = test::SmallRmat(90, 380, 0.2, 1049);
  for (BepiMode mode : {BepiMode::kBasic, BepiMode::kSparsified,
                        BepiMode::kPreconditioned}) {
    BepiOptions options;
    options.mode = mode;
    BepiSolver original(options);
    ASSERT_TRUE(original.Preprocess(g).ok());
    std::stringstream stream;
    ASSERT_TRUE(original.Save(stream).ok());
    auto loaded = BepiSolver::Load(stream);
    ASSERT_TRUE(loaded.ok()) << BepiModeName(mode);
    EXPECT_EQ(loaded->name(), original.name());
    auto r1 = original.Query(7);
    auto r2 = loaded->Query(7);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_LT(DistL2(*r1, *r2), 1e-12);
  }
}

TEST(Serialize, LoadedModelSupportsPpr) {
  Graph g = test::SmallRmat(80, 330, 0.2, 1051);
  BepiOptions options;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());
  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  auto loaded = BepiSolver::Load(stream);
  ASSERT_TRUE(loaded.ok());
  auto q = PersonalizationVector(80, {{1, 1.0}, {50, 2.0}});
  ASSERT_TRUE(q.ok());
  auto r1 = original.QueryVector(*q);
  auto r2 = loaded->QueryVector(*q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(DistL2(*r1, *r2), 1e-12);
}

TEST(Serialize, FileRoundTrip) {
  Graph g = test::SmallRmat(60, 250, 0.2, 1061);
  BepiOptions options;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());
  const std::string path = testing::TempDir() + "/bepi_model_test.txt";
  ASSERT_TRUE(original.SaveFile(path).ok());
  auto loaded = BepiSolver::LoadFile(path);
  ASSERT_TRUE(loaded.ok());
  auto r1 = original.Query(3);
  auto r2 = loaded->Query(3);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(DistL2(*r1, *r2), 1e-12);
}

TEST(Serialize, SaveRequiresPreprocess) {
  BepiSolver solver(BepiOptions{});
  std::stringstream stream;
  EXPECT_EQ(solver.Save(stream).code(), StatusCode::kFailedPrecondition);
}

TEST(Serialize, LoadRejectsGarbage) {
  {
    std::stringstream empty;
    EXPECT_EQ(BepiSolver::Load(empty).status().code(), StatusCode::kIoError);
  }
  {
    std::stringstream wrong("NOT-A-MODEL\n");
    EXPECT_EQ(BepiSolver::Load(wrong).status().code(), StatusCode::kIoError);
  }
  {
    // A real model cut off mid-stream.
    BepiSolver solver(BepiOptions{});
    ASSERT_TRUE(solver.Preprocess(test::SmallRmat(40, 160, 0.2, 1061)).ok());
    std::ostringstream out;
    ASSERT_TRUE(solver.Save(out).ok());
    const std::string model = out.str();
    std::stringstream truncated(model.substr(0, model.size() / 2));
    EXPECT_FALSE(BepiSolver::Load(truncated).ok());
  }
  {
    // Inconsistent partition sizes.
    std::stringstream bad_sizes(
        StreamWithPartition({3, 3, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    auto loaded = BepiSolver::Load(bad_sizes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("partition sizes"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // Unframed pre-v3 streams are refused by header.
    std::stringstream v1("BEPI-MODEL v1\n2 0.05 1e-9 100 100 0.2\n");
    auto loaded = BepiSolver::Load(v1);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("bad header"), std::string::npos);
  }
  EXPECT_EQ(BepiSolver::LoadFile("/nonexistent/model").status().code(),
            StatusCode::kIoError);
}

TEST(Serialize, LoadRejectsTamperedPermutation) {
  Graph g = test::SmallRmat(40, 160, 0.2, 1063);
  BepiSolver original(BepiOptions{});
  ASSERT_TRUE(original.Preprocess(g).ok());
  const HubSpokeDecomposition& dec = original.decomposition();
  // A permutation with a repeated id, framed with valid checksums, so the
  // permutation check itself has to catch it.
  std::vector<index_t> perm = dec.perm;
  perm[1] = perm[0];
  std::stringstream tampered(
      StreamWithPartition({dec.n1, dec.n2, dec.n3}, perm));
  auto loaded = BepiSolver::Load(tampered);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("permutation"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace bepi
