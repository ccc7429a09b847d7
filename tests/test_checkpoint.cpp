// Kill-safe resumable preprocessing: CheckpointManager semantics
// (fingerprint binding, corruption tolerance, invalidation), stage-by-stage
// resume of BuildDecomposition, SlashBurn round resume, and SIGKILL
// death tests proving a killed-and-resumed run produces a bit-identical
// model.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/faultinject.hpp"
#include "core/bepi.hpp"
#include "core/checkpoint.hpp"
#include "core/decomposition.hpp"
#include "graph/slashburn.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override {
    FaultInjector::Global().Reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  /// Fresh per-test checkpoint directory.
  const std::string& Dir() {
    if (dir_.empty()) {
      const testing::TestInfo* info =
          testing::UnitTest::GetInstance()->current_test_info();
      dir_ = testing::TempDir() + "/ckpt_" + info->name();
      std::filesystem::remove_all(dir_);
    }
    return dir_;
  }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// CheckpointManager

TEST_F(CheckpointTest, WriteReadRoundTrip) {
  CheckpointManager manager(Dir());
  manager.Bind(0x1234);
  ASSERT_TRUE(
      manager.Write("stage-a", {{"counts", "1 2 3\n"}, {"blob", ""}}).ok());
  auto sections = manager.Read("stage-a");
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ(sections->at("counts"), "1 2 3\n");
  EXPECT_EQ(sections->at("blob"), "");
  EXPECT_EQ(manager.checkpoints_written(), 1);
  EXPECT_EQ(manager.checkpoints_resumed(), 1);
}

TEST_F(CheckpointTest, MissingStageIsNotFound) {
  CheckpointManager manager(Dir());
  EXPECT_EQ(manager.Read("never-written").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointTest, InvalidateRemovesCheckpoint) {
  CheckpointManager manager(Dir());
  ASSERT_TRUE(manager.Write("stage-a", {{"x", "y"}}).ok());
  ASSERT_TRUE(manager.Read("stage-a").ok());
  manager.Invalidate("stage-a");
  EXPECT_EQ(manager.Read("stage-a").status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, FingerprintMismatchReadsAsNotFound) {
  {
    CheckpointManager manager(Dir());
    manager.Bind(0xAAAA);
    ASSERT_TRUE(manager.Write("stage-a", {{"x", "y"}}).ok());
  }
  CheckpointManager other(Dir());
  other.Bind(0xBBBB);
  EXPECT_EQ(other.Read("stage-a").status().code(), StatusCode::kNotFound);
  other.Bind(0xAAAA);
  EXPECT_TRUE(other.Read("stage-a").ok());
}

TEST_F(CheckpointTest, CorruptedCheckpointReadsAsNotFound) {
  CheckpointManager manager(Dir());
  ASSERT_TRUE(manager.Write("stage-a", {{"x", "payload to corrupt"}}).ok());
  // Flip one byte in the middle of the checkpoint file.
  std::string file;
  for (const auto& entry : std::filesystem::directory_iterator(Dir())) {
    if (entry.path().extension() == ".ckpt") file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(file);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_EQ(manager.Read("stage-a").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Resumable BuildDecomposition

void ExpectCsrEq(const CsrMatrix& a, const CsrMatrix& b, const char* what) {
  EXPECT_EQ(a.rows(), b.rows()) << what;
  EXPECT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;
}

void ExpectDecompositionEq(const HubSpokeDecomposition& a,
                           const HubSpokeDecomposition& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.n1, b.n1);
  EXPECT_EQ(a.n2, b.n2);
  EXPECT_EQ(a.n3, b.n3);
  EXPECT_EQ(a.perm, b.perm);
  EXPECT_EQ(a.block_sizes, b.block_sizes);
  EXPECT_EQ(a.product_nnz, b.product_nnz);
  ExpectCsrEq(a.h11, b.h11, "h11");
  ExpectCsrEq(a.h12, b.h12, "h12");
  ExpectCsrEq(a.h21, b.h21, "h21");
  ExpectCsrEq(a.h22, b.h22, "h22");
  ExpectCsrEq(a.h31, b.h31, "h31");
  ExpectCsrEq(a.h32, b.h32, "h32");
  ExpectCsrEq(a.l1_inv, b.l1_inv, "l1_inv");
  ExpectCsrEq(a.u1_inv, b.u1_inv, "u1_inv");
  ExpectCsrEq(a.schur, b.schur, "schur");
}

DecompositionOptions TestDecompositionOptions() {
  DecompositionOptions options;
  options.checkpoint_interval_seconds = 0;  // snapshot every round / block
  return options;
}

TEST_F(CheckpointTest, CheckpointedBuildMatchesScratchBitwise) {
  Graph g = test::SmallRmat(130, 560, 0.25, 3001);
  const DecompositionOptions options = TestDecompositionOptions();

  auto scratch = BuildDecomposition(g, options, nullptr);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  CheckpointManager manager(Dir());
  manager.Bind(PreprocessFingerprint(g, "tag"));
  auto checkpointed = BuildDecomposition(g, options, nullptr, &manager);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status().ToString();
  EXPECT_GT(manager.checkpoints_written(), 0);
  EXPECT_EQ(manager.checkpoints_resumed(), 0);
  ExpectDecompositionEq(*scratch, *checkpointed);

  // A second run over the same directory resumes every stage and still
  // produces the identical decomposition.
  CheckpointManager resumer(Dir());
  resumer.Bind(PreprocessFingerprint(g, "tag"));
  auto resumed = BuildDecomposition(g, options, nullptr, &resumer);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // reorder + factor + schur (deadend/slashburn are superseded by reorder).
  EXPECT_EQ(resumer.checkpoints_resumed(), 3);
  EXPECT_EQ(resumer.checkpoints_written(), 0);
  ExpectDecompositionEq(*scratch, *resumed);
}

std::string SaveModel(const BepiSolver& solver) {
  std::ostringstream out;
  EXPECT_TRUE(solver.Save(out).ok());
  return out.str();
}

TEST_F(CheckpointTest, LeftoverV1CheckpointsAreDiscardedWithAWarning) {
  Graph g = test::SmallRmat(120, 500, 0.25, 3011);
  BepiSolver scratch(BepiOptions{});
  ASSERT_TRUE(scratch.Preprocess(g).ok());
  {
    CheckpointManager manager(Dir());
    BepiSolver first(BepiOptions{});
    ASSERT_TRUE(first.Preprocess(g, &manager).ok());
  }
  // Relabel every checkpoint with the magic of the text-payload format an
  // older build wrote; the magic line is outside every checksum, so only
  // the version check can turn these files away.
  int relabeled = 0;
  for (const auto& entry : std::filesystem::directory_iterator(Dir())) {
    if (entry.path().extension() != ".ckpt") continue;
    std::string content;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(content.rfind("BEPI-CKPT v2\n", 0), 0u) << entry.path();
    content[11] = '1';
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << content;
    ++relabeled;
  }
  ASSERT_GT(relabeled, 0);

  testing::internal::CaptureStderr();
  CheckpointManager manager(Dir());
  BepiSolver resumed(BepiOptions{});
  const Status status = resumed.Preprocess(g, &manager);
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(resumed.info().checkpoints_resumed, 0);
  EXPECT_NE(log.find("ignoring checkpoint"), std::string::npos) << log;
  EXPECT_NE(log.find("BEPI-CKPT v1"), std::string::npos) << log;
  EXPECT_EQ(SaveModel(resumed), SaveModel(scratch));
}

TEST_F(CheckpointTest, ResumeFromEachStagePrefixMatchesScratch) {
  Graph g = test::SmallRmat(110, 470, 0.2, 3007);
  const DecompositionOptions options = TestDecompositionOptions();
  auto scratch = BuildDecomposition(g, options, nullptr);
  ASSERT_TRUE(scratch.ok());

  // Invalidate progressively longer suffixes of the stage chain and rerun:
  // every prefix of durable state must complete to the same result.
  const std::vector<std::vector<std::string>> suffixes = {
      {"schur"},
      {"schur", "factor"},
      {"schur", "factor", "reorder"},
  };
  for (const auto& suffix : suffixes) {
    std::filesystem::remove_all(Dir());
    CheckpointManager full(Dir());
    full.Bind(PreprocessFingerprint(g, "tag"));
    ASSERT_TRUE(BuildDecomposition(g, options, nullptr, &full).ok());
    for (const std::string& stage : suffix) full.Invalidate(stage);

    CheckpointManager partial(Dir());
    partial.Bind(PreprocessFingerprint(g, "tag"));
    auto resumed = BuildDecomposition(g, options, nullptr, &partial);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectDecompositionEq(*scratch, *resumed);
  }
}

TEST_F(CheckpointTest, StaleFingerprintRecomputesInsteadOfResuming) {
  Graph a = test::SmallRmat(100, 420, 0.2, 3011);
  Graph b = test::SmallRmat(100, 420, 0.2, 3013);
  const DecompositionOptions options = TestDecompositionOptions();
  {
    CheckpointManager manager(Dir());
    manager.Bind(PreprocessFingerprint(a, "tag"));
    ASSERT_TRUE(BuildDecomposition(a, options, nullptr, &manager).ok());
  }
  // Same directory, different graph: all checkpoints are stale.
  auto scratch_b = BuildDecomposition(b, options, nullptr);
  ASSERT_TRUE(scratch_b.ok());
  CheckpointManager manager(Dir());
  manager.Bind(PreprocessFingerprint(b, "tag"));
  auto resumed_b = BuildDecomposition(b, options, nullptr, &manager);
  ASSERT_TRUE(resumed_b.ok());
  EXPECT_EQ(manager.checkpoints_resumed(), 0);
  ExpectDecompositionEq(*scratch_b, *resumed_b);
}

TEST_F(CheckpointTest, OptionsTagChangesFingerprint) {
  Graph g = test::SmallRmat(80, 320, 0.2, 3017);
  EXPECT_NE(PreprocessFingerprint(g, "k=0.2"), PreprocessFingerprint(g, "k=0.3"));
}

// ---------------------------------------------------------------------------
// SlashBurn round resume

TEST_F(CheckpointTest, SlashBurnResumesMidRunToIdenticalResult) {
  Rng rng(3023);
  const CsrMatrix adjacency = test::RandomSparse(90, 90, 0.04, &rng);

  SlashBurnOptions options;
  options.k_ratio = 0.05;  // many rounds, so mid-run states exist
  std::vector<SlashBurnResult> partials;
  options.round_hook = [&partials](const SlashBurnResult& partial) {
    partials.push_back(partial);
    return Status::Ok();
  };
  auto uninterrupted = SlashBurn(adjacency, options);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ASSERT_GE(partials.size(), 2u);

  // Resume from every captured round; each must converge to the exact
  // result of the uninterrupted run.
  for (std::size_t i = 0; i + 1 < partials.size(); ++i) {
    SlashBurnOptions resume_options;
    resume_options.k_ratio = options.k_ratio;
    resume_options.resume_from = &partials[i];
    auto resumed = SlashBurn(adjacency, resume_options);
    ASSERT_TRUE(resumed.ok()) << "round " << i << ": "
                              << resumed.status().ToString();
    EXPECT_EQ(resumed->perm, uninterrupted->perm) << "round " << i;
    EXPECT_EQ(resumed->num_spokes, uninterrupted->num_spokes);
    EXPECT_EQ(resumed->num_hubs, uninterrupted->num_hubs);
    EXPECT_EQ(resumed->block_sizes, uninterrupted->block_sizes);
  }
}

TEST_F(CheckpointTest, SlashBurnRejectsResumeWithRandomSelection) {
  Rng rng(3037);
  const CsrMatrix adjacency = test::RandomSparse(40, 40, 0.08, &rng);
  SlashBurnResult partial;
  partial.perm.assign(40, -1);
  SlashBurnOptions options;
  options.hub_selection = SlashBurnOptions::HubSelection::kRandom;
  options.resume_from = &partial;
  EXPECT_EQ(SlashBurn(adjacency, options).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end kill-and-resume (death tests)

std::string SaveToString(const BepiSolver& solver) {
  std::ostringstream out;
  EXPECT_TRUE(solver.Save(out).ok());
  return out.str();
}

/// SIGKILLs preprocessing right after the (skip+1)-th checkpoint commits,
/// then resumes in this process and checks the model is byte-identical to
/// a from-scratch run. This is the in-process version of the ci.sh
/// kill-and-resume smoke test.
void KillResumeAndCompare(const std::string& dir, int skip) {
  Graph g = test::SmallRmat(120, 500, 0.25, 3041);
  BepiOptions options;

  BepiSolver scratch(options);
  ASSERT_TRUE(scratch.Preprocess(g).ok());
  const std::string scratch_model = SaveToString(scratch);

  EXPECT_EXIT(
      {
        FaultInjector::Global().Arm(fault_sites::kCheckpointCrash, skip,
                                    /*count=*/1);
        BepiSolver victim(options);
        CheckpointManager checkpoints(dir);
        (void)victim.Preprocess(g, &checkpoints);
        // Unreachable when the armed crash fires.
      },
      testing::KilledBySignal(SIGKILL), "");

  // The directory now holds the checkpoints committed before the kill.
  BepiSolver resumed(options);
  CheckpointManager checkpoints(dir);
  ASSERT_TRUE(resumed.Preprocess(g, &checkpoints).ok());
  if (skip > 0) {
    EXPECT_GT(resumed.info().checkpoints_resumed, 0)
        << "kill after checkpoint " << skip + 1
        << " left nothing to resume";
  }
  EXPECT_EQ(SaveToString(resumed), scratch_model)
      << "resumed model differs from scratch after kill at checkpoint "
      << skip + 1;
}

using CheckpointDeathTest = CheckpointTest;

TEST_F(CheckpointDeathTest, KillAfterFirstCheckpointThenResume) {
  KillResumeAndCompare(Dir(), /*skip=*/0);
}

TEST_F(CheckpointDeathTest, KillAfterEachStageCheckpointThenResume) {
  // A scratch run commits four stage checkpoints (deadend, reorder,
  // factor, schur); kill after each in turn, always resuming into a fresh
  // directory.
  for (int skip = 1; skip < 4; ++skip) {
    std::filesystem::remove_all(Dir());
    KillResumeAndCompare(Dir(), skip);
  }
}

TEST_F(CheckpointDeathTest, PreprocessInfoReportsCheckpointOverhead) {
  Graph g = test::SmallRmat(90, 380, 0.2, 3049);
  BepiOptions options;
  BepiSolver solver(options);
  CheckpointManager checkpoints(Dir());
  ASSERT_TRUE(solver.Preprocess(g, &checkpoints).ok());
  EXPECT_EQ(solver.info().checkpoints_written, 4);
  EXPECT_EQ(solver.info().checkpoints_resumed, 0);
  EXPECT_GT(solver.info().checkpoint_seconds, 0.0);

  BepiSolver resumer(options);
  CheckpointManager resume_manager(Dir());
  ASSERT_TRUE(resumer.Preprocess(g, &resume_manager).ok());
  EXPECT_EQ(resumer.info().checkpoints_written, 0);
  EXPECT_EQ(resumer.info().checkpoints_resumed, 3);
}

}  // namespace
}  // namespace bepi
