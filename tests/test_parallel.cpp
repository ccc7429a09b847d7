// Parallel execution layer tests: ThreadPool/TaskGroup lifecycle (incl.
// exception propagation and shutdown), ParallelFor coverage on adversarial
// grains, the "one query, one thread" contract (a query never enters the
// pool; a batch does), the fixed summation order of the vector reductions,
// BatchQueryEngine equivalence with a sequential query loop, clean Status
// propagation when a fault fires inside a worker task, and a forked child
// running serially.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/faultinject.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/batch.hpp"
#include "core/bepi.hpp"
#include "core/datasets.hpp"
#include "solver/gmres.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// Every test leaves the global context in its default (env-derived)
/// state so later tests in the same process start clean.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(0).ok());
    FaultInjector::Global().Reset();
  }
};

TEST_F(ParallelTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST_F(ParallelTest, SetNumThreadsControlsPoolExistence) {
  ParallelContext& ctx = ParallelContext::Global();
  ASSERT_TRUE(ctx.SetNumThreads(1).ok());
  EXPECT_EQ(ctx.num_threads(), 1);
  EXPECT_EQ(ctx.pool(), nullptr);  // 1 = exact serial fallback, no pool

  ASSERT_TRUE(ctx.SetNumThreads(4).ok());
  EXPECT_EQ(ctx.num_threads(), 4);
  ASSERT_NE(ctx.pool(), nullptr);
  EXPECT_EQ(ctx.pool()->size(), 4);

  EXPECT_FALSE(ctx.SetNumThreads(-3).ok());
  EXPECT_EQ(ctx.num_threads(), 4);  // failed call leaves state untouched
}

TEST_F(ParallelTest, PoolRunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST_F(ParallelTest, TaskGroupRethrowsFirstExceptionAndStaysUsable) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Run([&ran, i] {
      ran.fetch_add(1);
      if (i % 4 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // an exception does not cancel peers

  // The group (and the pool) survive a thrown task.
  group.Run([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 17);
}

TEST_F(ParallelTest, PoolDestructionDrainsQueuedTasks) {
  // Submit from the outside and destroy immediately: every queued task
  // must still execute (shutdown drains, it does not drop).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Run([&ran] { ran.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST_F(ParallelTest, ParallelForMatchesSerialOnAdversarialGrains) {
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  const index_t n = 1000;
  // Grains: degenerate (<=0 treated as 1), 1, prime, larger than range.
  for (index_t grain : {index_t{-5}, index_t{0}, index_t{1}, index_t{7},
                        index_t{13}, index_t{999}, index_t{1000},
                        index_t{5000}}) {
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    ParallelFor(0, n, grain, [&visits](index_t begin, index_t end) {
      ASSERT_LT(begin, end);
      for (index_t i = begin; i < end; ++i) {
        visits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " grain " << grain;
    }
  }
  // Empty and reversed ranges run nothing.
  ParallelFor(5, 5, 4, [](index_t, index_t) { FAIL(); });
  ParallelFor(5, 2, 4, [](index_t, index_t) { FAIL(); });
}

TEST_F(ParallelTest, NestedParallelForOnWorkerRunsInline) {
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  std::atomic<int> inner_total{0};
  // Outer tasks saturate the pool; inner ParallelFor must not deadlock
  // waiting for workers that are all busy running outer tasks.
  ParallelFor(0, 8, 1, [&inner_total](index_t begin, index_t end) {
    for (index_t i = begin; i < end; ++i) {
      ParallelFor(0, 100, 10, [&inner_total](index_t b, index_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 800);
}

/// Values spanning many magnitudes make floating-point summation order
/// visible: any change in association changes the bits.
Vector AdversarialVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t mag = std::pow(10.0, rng.UniformIndex(-12, 12));
    v[i] = (2.0 * rng.NextDouble() - 1.0) * mag;
  }
  return v;
}

TEST_F(ParallelTest, ReductionsBitIdenticalAcrossThreadCounts) {
  const Vector x = AdversarialVector(100'003, 42);
  const Vector y = AdversarialVector(100'003, 43);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(1).ok());
  const real_t dot1 = Dot(x, y);
  const real_t norm1_1 = Norm1(x);
  const real_t norm2_1 = Norm2(x);
  const real_t inf_1 = NormInf(x);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  // Exact equality on purpose: the determinism contract is bitwise.
  EXPECT_EQ(Dot(x, y), dot1);
  EXPECT_EQ(Norm1(x), norm1_1);
  EXPECT_EQ(Norm2(x), norm2_1);
  EXPECT_EQ(NormInf(x), inf_1);
}

TEST_F(ParallelTest, SpmvBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const CsrMatrix a = test::RandomSparse(600, 600, 0.05, &rng);
  const Vector x = AdversarialVector(600, 11);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(1).ok());
  const Vector serial = a.Multiply(x);
  Vector serial_add(600, 1.0);
  a.MultiplyAdd(-2.0, x, &serial_add);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());
  EXPECT_EQ(a.Multiply(x), serial);
  Vector parallel_add(600, 1.0);
  a.MultiplyAdd(-2.0, x, &parallel_add);
  EXPECT_EQ(parallel_add, serial_add);
}

/// The level-by-level pairwise combine the vector sums are specified by:
/// adjacent pairs summed, an odd last element carried up unchanged.
real_t LevelByLevelPairwise(std::vector<real_t> v) {
  std::size_t n = v.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) v[i] = v[2 * i] + v[2 * i + 1];
    if (n % 2 != 0) v[half] = v[n - 1];
    n = half + (n % 2);
  }
  return v[0];
}

TEST_F(ParallelTest, ChunkedPairwiseSumKeepsTheFixedCombineOrder) {
  // Chunk counts 1..67 cover every carry pattern of the first six levels;
  // the adversarial magnitudes make any change of association visible.
  const Vector x = AdversarialVector(67 * kReduceGrain, 5);
  for (index_t chunks = 1; chunks <= 67; ++chunks) {
    for (index_t tail : {index_t{0}, index_t{1}, kReduceGrain - 1}) {
      const index_t n = chunks * kReduceGrain - tail;
      std::vector<real_t> partials;
      for (index_t b = 0; b < n; b += kReduceGrain) {
        real_t s = 0.0;
        for (index_t i = b; i < std::min(n, b + kReduceGrain); ++i) {
          s += x[static_cast<std::size_t>(i)];
        }
        partials.push_back(s);
      }
      const Vector prefix(x.begin(), x.begin() + n);
      const Vector ones(static_cast<std::size_t>(n), 1.0);
      EXPECT_EQ(Dot(prefix, ones), LevelByLevelPairwise(partials))
          << "n = " << n;
    }
  }
  EXPECT_EQ(Dot(Vector{}, Vector{}), 0.0);
}

TEST_F(ParallelTest, PoolBumpsTaskCounter) {
  SetMetricsEnabled(true);
  Counter* tasks = MetricsRegistry::Global().GetCounter("parallel.tasks");
  tasks->Reset();
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  ParallelFor(0, 64, 1, [](index_t, index_t) {});
  EXPECT_EQ(tasks->value(), 64u);  // one task per chunk, none on the side
  SetMetricsEnabled(false);
}

TEST_F(ParallelTest, QueriesRunOnTheCallingThreadAndBatchesUseThePool) {
  // Slashdot-sim x4: its Schur complement is wider than one reduction
  // chunk and has enough non-zeros that a row-split SpMV would fan out,
  // so any pool use inside a query would show in parallel.tasks.
  auto spec = FindDataset("Slashdot-sim");
  ASSERT_TRUE(spec.ok());
  const DatasetSpec sd4 = ScaleSpec(*spec, 4.0);
  auto g = GenerateDataset(sd4);
  ASSERT_TRUE(g.ok());
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(*g).ok());
  ASSERT_GT(solver.info().n2, kReduceGrain);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());
  SetMetricsEnabled(true);
  Counter* tasks = MetricsRegistry::Global().GetCounter("parallel.tasks");
  const std::vector<index_t> seeds{1, 17, 123, 4567};

  tasks->Reset();
  for (index_t seed : seeds) ASSERT_TRUE(solver.Query(seed).ok());
  EXPECT_EQ(tasks->value(), 0u) << "Query";

  tasks->Reset();
  TopKOptions topk;
  topk.k = 10;
  for (index_t seed : seeds) ASSERT_TRUE(solver.QueryTopK(seed, topk).ok());
  EXPECT_EQ(tasks->value(), 0u) << "QueryTopK";

  tasks->Reset();
  std::vector<MultiQueryItem> items(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) items[i].seed = seeds[i];
  std::vector<MultiQueryResult> results;
  ASSERT_TRUE(solver.QueryMulti(items, &results).ok());
  for (const MultiQueryResult& r : results) ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(tasks->value(), 0u) << "QueryMulti";

  tasks->Reset();
  BatchQueryOptions batch_options;
  batch_options.collect_stats = false;
  auto batch = BatchQueryEngine(solver, batch_options).Run(seeds);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(tasks->value(), 0u) << "BatchQueryEngine";
  SetMetricsEnabled(false);
}

TEST_F(ParallelTest, GmresWorkspaceReuseDoesNotChangeResults) {
  Rng rng(3);
  const CsrMatrix a = test::RandomDiagDominant(200, 0.05, &rng);
  const Vector b = test::RandomVector(200, &rng);
  CsrOperator op(a);
  GmresOptions options;
  SolveStats fresh_stats;
  auto fresh = Gmres(op, b, options, &fresh_stats);
  ASSERT_TRUE(fresh.ok());

  GmresWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    SolveStats stats;
    auto reused = Gmres(op, b, options, &stats, nullptr, nullptr, &ws);
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(*reused, *fresh) << "round " << round;
    EXPECT_EQ(stats.iterations, fresh_stats.iterations);
  }
}

TEST_F(ParallelTest, BatchMatchesSequentialQueries) {
  Graph g = test::SmallRmat(300, 1500, 0.2, 99);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());

  std::vector<index_t> seeds;
  for (index_t s = 0; s < 40; ++s) seeds.push_back((s * 37) % 300);

  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(1).ok());
  std::vector<Vector> sequential;
  for (index_t s : seeds) {
    auto r = solver.Query(s);
    ASSERT_TRUE(r.ok());
    sequential.push_back(std::move(r).value());
  }

  for (int threads : {1, 4, 8}) {
    ASSERT_TRUE(ParallelContext::Global().SetNumThreads(threads).ok());
    BatchQueryEngine engine(solver);
    auto batch = engine.Run(seeds);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->vectors.size(), seeds.size());
    ASSERT_EQ(batch->stats.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      // Bitwise equality: batching and thread count must not perturb
      // a single result.
      EXPECT_EQ(batch->vectors[i], sequential[i]) << "seed " << seeds[i];
    }
    EXPECT_GT(batch->seconds, 0.0);
    EXPECT_GT(batch->throughput_qps(), 0.0);
  }
}

TEST_F(ParallelTest, BatchRespectsMaxConcurrency) {
  Graph g = test::SmallRmat(120, 500, 0.25, 5);
  BepiSolver solver{BepiOptions{}};
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(8).ok());

  std::vector<index_t> seeds{3, 1, 4, 1, 5, 9, 2, 6};
  BatchQueryOptions opts;
  opts.max_concurrency = 2;
  opts.collect_stats = false;
  BatchQueryEngine engine(solver, opts);
  auto batch = engine.Run(seeds);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->vectors.size(), seeds.size());
  EXPECT_TRUE(batch->stats.empty());
}

TEST_F(ParallelTest, FaultInWorkerPropagatesCleanStatus) {
  Graph g = test::SmallRmat(150, 700, 0.2, 17);
  BepiOptions options;
  options.enable_fallbacks = false;  // fault must surface, not degrade
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(g).ok());
  ASSERT_TRUE(ParallelContext::Global().SetNumThreads(4).ok());

  // Every GMRES call inside the concurrent batch reports stagnation.
  FaultInjector::Global().Arm(fault_sites::kGmresStagnate, 0, -1);
  BatchQueryEngine engine(solver);
  std::vector<index_t> seeds{0, 10, 20, 30, 40, 50};
  auto batch = engine.Run(seeds);
  FaultInjector::Global().Reset();

  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kNotConverged);
  // The batch error names the failing seed deterministically (first in
  // seed order, independent of completion order).
  EXPECT_NE(batch.status().message().find("seed index"), std::string::npos)
      << batch.status().ToString();

  // Same batch succeeds once the fault is disarmed: the engine carries no
  // poisoned state across Run calls.
  auto retry = engine.Run(seeds);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ParallelTest, ReadSeedsFileParsesCommentsAndBlankLines) {
  const std::string path = testing::TempDir() + "/seeds_ok.txt";
  std::ofstream(path) << "# header comment\n3\n 7 \n\n11 # trailing\n";
  auto seeds = ReadSeedsFile(path);
  ASSERT_TRUE(seeds.ok()) << seeds.status().ToString();
  EXPECT_EQ(*seeds, (std::vector<index_t>{3, 7, 11}));
}

TEST_F(ParallelTest, ReadSeedsFileRejectsGarbage) {
  const std::string path = testing::TempDir() + "/seeds_bad.txt";
  std::ofstream(path) << "3\nnot-a-number\n";
  auto seeds = ReadSeedsFile(path);
  ASSERT_FALSE(seeds.ok());
  EXPECT_EQ(seeds.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(ReadSeedsFile(testing::TempDir() + "/definitely_missing.txt")
                .status()
                .code(),
            StatusCode::kNotFound);
}

/// Fills out[i] = 2i + 1 through ParallelFor; true when every entry is right.
bool ParallelFillIsCorrect() {
  std::vector<index_t> out(4096, 0);
  ParallelFor(0, static_cast<index_t>(out.size()), 64,
              [&out](index_t b, index_t e) {
                for (index_t i = b; i < e; ++i) {
                  out[static_cast<std::size_t>(i)] = 2 * i + 1;
                }
              });
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 2 * static_cast<index_t>(i) + 1) return false;
  }
  return true;
}

TEST_F(ParallelTest, ForkedChildRunsSeriallyWithoutInheritedWorkers) {
  ParallelContext& ctx = ParallelContext::Global();
  ASSERT_TRUE(ctx.SetNumThreads(4).ok());
  ASSERT_TRUE(ParallelFillIsCorrect());  // workers are up and parked

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Only the forking thread exists here. Work submitted to the parent's
    // pool would wait forever for workers that were not copied.
    const bool filled = ParallelFillIsCorrect();
    const bool serial = ctx.pool() == nullptr && ctx.num_threads() == 1;
    _exit(filled && serial ? 0 : 1);
  }
  int status = 0;
  pid_t waited = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((waited = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waited == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "forked child hung in ParallelFor";
  }
  ASSERT_EQ(waited, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The parent keeps its pool.
  EXPECT_EQ(ctx.num_threads(), 4);
  EXPECT_TRUE(ParallelFillIsCorrect());
}

TEST_F(ParallelTest, ThreadsFromEnvParsesAndFallsBack) {
  ASSERT_EQ(setenv("BEPI_THREADS", "3", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), 3);
  ASSERT_EQ(setenv("BEPI_THREADS", "garbage", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
  ASSERT_EQ(setenv("BEPI_THREADS", "0", 1), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
  ASSERT_EQ(unsetenv("BEPI_THREADS"), 0);
  EXPECT_EQ(internal::ThreadsFromEnv(), HardwareThreads());
}

}  // namespace
}  // namespace bepi
