// Reproduces Figure 1(c): average query time of BePI against GMRES, power
// iteration, Bear and LU decomposition on every dataset. Methods whose
// preprocessing fails under the shared budget/time ceiling print "-".
//
// Every query runs on the calling thread, so the times do not depend on
// --threads.
//
// Usage: bench_fig1_query [--scale=1.0] [--queries=5] [--budget_mb=256]
//        [--json-out=BENCH_fig1_query.json]
#include "bench_util.hpp"
#include "core/bear.hpp"
#include "core/bepi.hpp"
#include "core/iterative.hpp"
#include "core/lu_rwr.hpp"

int main(int argc, char** argv) {
  using namespace bepi;
  Flags flags = Flags::Parse(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  bench::PrintBanner("Figure 1(c): query time", config);
  bench::BenchJsonWriter json("fig1_query");

  Table table({"dataset", "edges", "BePI (s)", "GMRES (s)", "Power (s)",
               "Bear (s)", "LU (s)"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    Graph g = bench::LoadDataset(spec, config);
    std::vector<std::string> row{spec.name, Table::IntGrouped(g.num_edges())};

    auto run = [&](RwrSolver* solver, const char* method, bool skip) {
      if (!bench::RunPreprocess(solver, g, skip).ok()) {
        row.push_back("-");
        return;
      }
      const bench::QueryOutcome outcome =
          bench::RunQueries(*solver, g, config.num_queries, config.seed);
      if (outcome.ok()) {
        json.Add(spec.name, method, "avg_query_seconds", outcome.avg_seconds);
        json.Add(spec.name, method, "avg_iterations", outcome.avg_iterations);
      }
      row.push_back(outcome.TimeCell());
    };

    BepiOptions bepi_options;
    bepi_options.hub_ratio = spec.hub_ratio;
    bepi_options.memory_budget_bytes = config.budget_bytes;
    BepiSolver bepi_solver(bepi_options);
    run(&bepi_solver, "bepi", false);

    GmresSolverOptions gmres_options;
    GmresSolver gmres_solver(gmres_options);
    run(&gmres_solver, "gmres", false);

    RwrOptions power_options;
    PowerSolver power_solver(power_options);
    run(&power_solver, "power", false);

    BearOptions bear_options;
    bear_options.memory_budget_bytes = config.budget_bytes;
    BearSolver bear_solver(bear_options);
    run(&bear_solver, "bear", g.num_edges() > config.bear_max_edges);

    LuSolverOptions lu_options;
    lu_options.memory_budget_bytes = config.budget_bytes;
    LuSolver lu_solver(lu_options);
    run(&lu_solver, "lu", g.num_edges() > config.lu_max_edges);

    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 1(c)): BePI answers queries faster than\n"
      "both iterative methods (up to ~9x vs GMRES, more vs Power) on every\n"
      "dataset, and is the only preprocessing method that runs at all on\n"
      "the large graphs.\n");
  json.WriteIfRequested(flags);
  return 0;
}
