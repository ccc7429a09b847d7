// bepi_cli — command-line front end for the BePI library.
//
// Commands:
//   generate   --out=graph.txt --dataset=Slashdot-sim [--scale=1.0]
//              or --nodes=N --edges=M [--deadends=F] [--seed=S]
//   stats      --graph=graph.txt
//   preprocess --graph=graph.txt --model=model.txt
//              [--mode=bepi|bepi-s|bepi-b] [--k=0.2] [--c=0.05]
//   query      --model=model.txt --seed-node=ID [--topk=10]
//              or --engine=mc --graph=graph.txt --seed-node=ID (walk-based)
//   rank       --graph=graph.txt --seed-node=ID [--topk=10]  (one-shot)
//   crosscheck --graph=graph.txt  (exact vs Monte-Carlo oracle)
//   verify-model --model=model.txt   (per-section integrity fsck)
//
// Example:
//   bepi_cli generate --out=/tmp/g.txt --dataset=Slashdot-sim
//   bepi_cli preprocess --graph=/tmp/g.txt --model=/tmp/m.txt
//   bepi_cli query --model=/tmp/m.txt --seed-node=17 --topk=5
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cancel.hpp"
#include "common/faultinject.hpp"
#include "common/fileio.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/promtext.hpp"
#include "common/sections.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/batch.hpp"
#include "core/bepi.hpp"
#include "core/checkpoint.hpp"
#include "core/datasets.hpp"
#include "engine/mc/mc.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "server/server.hpp"
#include "sparse/kernel.hpp"

namespace {

using namespace bepi;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// One entry per subcommand; `help <name>` prints `text` verbatim and
/// Usage() prints the one-line `synopsis` of every entry. tools/
/// check_docs.sh cross-checks docs/OPERATIONS.md against this output, so
/// a flag documented here must exist and vice versa.
struct CommandHelp {
  const char* name;
  const char* synopsis;
  const char* text;
};

const CommandHelp kCommands[] = {
    {"generate",
     "generate   --out=FILE (--dataset=NAME [--scale=X] |\n"
     "           --nodes=N --edges=M [--deadends=F]) [--seed=S]",
     "bepi_cli generate — synthesize an edge-list graph file\n"
     "  --out=FILE       destination edge-list path (required)\n"
     "  --dataset=NAME   named dataset profile (see core/datasets); use\n"
     "                   instead of --nodes/--edges\n"
     "  --scale=X        scale a named dataset by X (default 1.0)\n"
     "  --nodes=N        R-MAT node count (default 10000)\n"
     "  --edges=M        R-MAT edge count (default 100000)\n"
     "  --deadends=F     fraction of nodes made deadends (default 0)\n"
     "  --seed=S         RNG seed (default 1)\n"
     "example:\n"
     "  bepi_cli generate --out=/tmp/g.txt --dataset=Slashdot-sim\n"},
    {"stats",
     "stats      --graph=FILE",
     "bepi_cli stats — structural statistics of an edge-list graph\n"
     "  --graph=FILE     edge-list path (required)\n"
     "prints node/edge/deadend counts and weak/strong component sizes.\n"
     "example:\n"
     "  bepi_cli stats --graph=/tmp/g.txt\n"},
    {"preprocess",
     "preprocess --graph=FILE --model=FILE [--mode=bepi|bepi-s|bepi-b]\n"
     "           [--k=0.2] [--c=0.05] [--tol=1e-9] [--checkpoint-dir=DIR]",
     "bepi_cli preprocess — run BePI preprocessing, save a model file\n"
     "  --graph=FILE          input edge list (required)\n"
     "  --model=FILE          output model path, format v4 (required)\n"
     "  --mode=MODE           bepi (ILU(0)+GMRES, default), bepi-s, bepi-b\n"
     "  --k=X                 hub ratio; 0 = the mode's paper default\n"
     "  --c=X                 restart probability (default 0.05)\n"
     "  --tol=X               solver tolerance (default 1e-9)\n"
     "  --checkpoint-dir=DIR  kill-safe preprocessing: rerun the same\n"
     "                        command after a crash to resume from the\n"
     "                        last durable stage\n"
     "example:\n"
     "  bepi_cli preprocess --graph=/tmp/g.txt --model=/tmp/m.txt\n"},
    {"query",
     "query      --model=FILE (--seed-node=ID | --seeds-file=FILE)\n"
     "           [--topk=10] [--stats --num-queries=N]\n"
     "           [--engine=mc --graph=FILE --walks=N --eps=E]",
     "bepi_cli query — answer RWR queries against a saved model\n"
     "  --model=FILE       model file from `preprocess` (required unless\n"
     "                     --engine=mc)\n"
     "  --seed-node=ID     single seed: print its top-k ranking\n"
     "  --seeds-file=FILE  batch mode: one seed id per line ('#' comments\n"
     "                     and blank lines ignored), answered concurrently\n"
     "                     over the thread pool (--threads) with reused\n"
     "                     per-slot solver workspaces\n"
     "  --topk=K           ranking length (default 10)\n"
     "  --top-k=K          top-k QUERY mode: answer with the k best nodes\n"
     "                     other than the seed.\n"
     "                     Exact by default (scores byte-identical to\n"
     "                     sorting a --dump-scores solve); add --eps=E for\n"
     "                     the bounded-error mode (the Schur solve stops\n"
     "                     at E and the answer carries an explicit\n"
     "                     per-score error bound)\n"
     "  --dump-topk=FILE   write the ranking as 'node score' lines at full\n"
     "                     precision (byte-comparable across --kernel and\n"
     "                     --threads)\n"
     "  --warm-start=mc    seed the Schur solve from a cheap Monte-Carlo\n"
     "                     estimate (needs --graph; off by default — a\n"
     "                     warm start changes the iterate sequence, so\n"
     "                     bit-identity only holds on the default path)\n"
     "  --dump-scores=FILE single-seed mode: also write every node's score,\n"
     "                     one per line in node order, at full precision\n"
     "                     (for bit-identity checks across --kernel and\n"
     "                     --threads settings)\n"
     "  --stats            latency percentiles over --num-queries\n"
     "                     consecutive seeds instead of a ranking\n"
     "  --num-queries=N    sample size for --stats (default 100)\n"
     "  --engine=NAME      exact (default; the model's solver chain) or mc\n"
     "                     (Monte-Carlo walks on the raw graph — needs\n"
     "                     --graph, not --model; anytime semantics: walks\n"
     "                     until --eps, the walk budget or --deadline-ms,\n"
     "                     then answers with a confidence bound)\n"
     "  --graph=FILE       edge list for the walk engine. With --engine=mc\n"
     "                     it replaces the model; with the exact engine it\n"
     "                     additionally arms the Monte-Carlo terminal\n"
     "                     fallback stage of the degradation chain\n"
     "  --walks=N          walk budget (default 100000)\n"
     "  --eps=E            anytime target: stop when the per-coordinate\n"
     "                     Hoeffding half-width reaches E (default 0 = run\n"
     "                     the whole budget)\n"
     "  --delta=D          confidence level 1-D for all bounds (default\n"
     "                     0.01)\n"
     "  --walk-seed=S      base seed of the per-walk RNG streams (default\n"
     "                     20170514); results are bit-identical for a\n"
     "                     fixed (seed, walks) at any --threads\n"
     "  --deadline-ms=X    mc engine: wall-clock budget; on expiry the\n"
     "                     current estimate is returned with its honest\n"
     "                     (wider) bound (default 0 = none)\n"
     "  --c=X              mc engine: restart probability (default 0.05)\n"
     "examples:\n"
     "  bepi_cli query --model=/tmp/m.txt --seed-node=17 --topk=5\n"
     "  bepi_cli query --model=/tmp/m.txt --seeds-file=seeds.txt --threads=8\n"
     "  bepi_cli query --engine=mc --graph=/tmp/g.txt --seed-node=17 \\\n"
     "    --walks=200000 --eps=0.002\n"},
    {"crosscheck",
     "crosscheck --graph=FILE [--seeds=3] [--walks=200000] [--delta=0.001]",
     "bepi_cli crosscheck — verify the linear-algebra engines against the\n"
     "Monte-Carlo walk oracle. Preprocesses --graph in-process, answers\n"
     "each check seed through the solver chain (whatever stage of the\n"
     "degradation chain survives --fault-inject) AND through independent\n"
     "walks, then fails loudly if any node's scores disagree by more than\n"
     "the combined confidence bound — a self-verification layer for CI.\n"
     "  --graph=FILE     input edge list (required)\n"
     "  --seeds=N        number of deterministic check seeds (default 3)\n"
     "  --seed-node=ID   check one specific seed instead\n"
     "  --query-eps=E    run the solver side in bounded-error mode: the\n"
     "                   Schur solve stops at E and the reported per-score\n"
     "                   error bound joins the allowed band — so this\n"
     "                   verifies the eps-mode bound itself against the\n"
     "                   oracle (default 0 = full-tolerance solve)\n"
     "  --walks=N        oracle walk budget per seed (default 200000)\n"
     "  --delta=D        oracle confidence level 1-D (default 0.001)\n"
     "  --walk-seed=S    oracle RNG base seed (default 987654321; kept\n"
     "                   distinct from the fallback stage's default so a\n"
     "                   chain that bottoms out in MC is still checked\n"
     "                   against independent randomness)\n"
     "also accepts the preprocess options --mode/--k/--c/--tol.\n"
     "exit status: 0 = every engine agreed within bounds, 1 = violation\n"
     "(prints the worst offending node, diff and allowed bound).\n"
     "example:\n"
     "  bepi_cli crosscheck --graph=/tmp/g.txt --seeds=5\n"
     "  bepi_cli crosscheck --graph=/tmp/g.txt \\\n"
     "    --fault-inject=ilu0.factor,gmres.stagnate,bicgstab.breakdown\n"},
    {"rank",
     "rank       --graph=FILE --seed-node=ID [--topk=10]",
     "bepi_cli rank — one-shot preprocess + query (no model file)\n"
     "  --graph=FILE     input edge list (required)\n"
     "  --seed-node=ID   seed node (required)\n"
     "  --topk=K         ranking length (default 10)\n"
     "also accepts the preprocess options --mode/--k/--c/--tol.\n"
     "example:\n"
     "  bepi_cli rank --graph=/tmp/g.txt --seed-node=17\n"},
    {"serve",
     "serve      --model=FILE [--socket=PATH] [--slots=2] [--max-queue=64]\n"
     "           [--default-deadline-ms=0] [--drain-ms=5000]",
     "bepi_cli serve — long-running query server over a saved model\n"
     "speaks one JSON object per line on stdin/stdout (default) or over a\n"
     "Unix-domain socket; see docs/OPERATIONS.md for the protocol.\n"
     "  --model=FILE             model file from `preprocess` (required)\n"
     "  --socket=PATH            serve a Unix-domain socket instead of\n"
     "                           stdin/stdout (concurrent connections)\n"
     "  --slots=N                worker slots answering queries (default 2)\n"
     "  --max-queue=N            admission queue bound; a full queue sheds\n"
     "                           load with an `overloaded` response and a\n"
     "                           retry_after_ms hint (default 64)\n"
     "  --default-deadline-ms=X  deadline for requests without their own\n"
     "                           deadline_ms; 0 = none (default 0)\n"
     "  --drain-ms=X             graceful-drain budget after SIGTERM/SIGINT\n"
     "                           or EOF before in-flight work is cancelled\n"
     "                           cooperatively (default 5000)\n"
     "  --watchdog-ms=X          watchdog sampling interval (default 250)\n"
     "  --wedge-ms=X             a worker busy on one request longer than\n"
     "                           this is cancelled and health degrades\n"
     "                           (default 30000)\n"
     "  --max-line-bytes=N       inbound request-line cap (default 1MiB)\n"
     "  --write-timeout-ms=X     drop a socket client that does not drain\n"
     "                           its responses in time (default 5000)\n"
     "  --max-conns=N            concurrent socket connection cap; above\n"
     "                           it a connection gets one `overloaded`\n"
     "                           line and is closed (default 64)\n"
     "  --graph=FILE             arm the Monte-Carlo terminal fallback:\n"
     "                           when every linear-algebra stage fails, a\n"
     "                           query is answered by walks on this raw\n"
     "                           edge list with the confidence half-width\n"
     "                           reported in the `residual` field and\n"
     "                           \"stage\":\"mc\" in the response\n"
     "  --walks=N                fallback walk budget (default 200000)\n"
     "  --delta=D                fallback confidence level 1-D (default\n"
     "                           0.01)\n"
     "  --walk-seed=S            fallback walk RNG base seed (default\n"
     "                           20170514)\n"
     "  --slow-ms=X              slow-query log: a query whose wall time\n"
     "                           (admission to response write) exceeds X\n"
     "                           logs one structured line with its full\n"
     "                           timing breakdown and pins its request_id\n"
     "                           to the latency histogram as the exemplar\n"
     "                           (default 0 = disabled)\n"
     "  --flight-dump=PATH       where the always-on flight recorder is\n"
     "                           dumped (Perfetto-loadable JSON) on a\n"
     "                           watchdog trip or fatal-signal drain\n"
     "                           (default bepi-flightrec.json; empty\n"
     "                           disables auto-dumps — the `dump` verb\n"
     "                           still works)\n"
     "  --cache-mb=N             hot-seed score cache budget in MiB; a\n"
     "                           repeated (model, seed) query is answered\n"
     "                           from memory, byte-identical to a cold\n"
     "                           solve, with \"stage\":\"cache\" in the\n"
     "                           response (default 0 = disabled)\n"
     "  --batch-max=K            most queries one worker slot coalesces\n"
     "                           into a single blocked Schur solve that\n"
     "                           streams the matrix once for all of them\n"
     "                           (default 8; 1 disables coalescing)\n"
     "  --batch-window-ms=X      how long a slot that popped one query\n"
     "                           waits for more to coalesce with it\n"
     "                           (default 0 = only already-queued backlog\n"
     "                           is coalesced, no added latency)\n"
     "example:\n"
     "  echo '{\"op\":\"query\",\"seed\":17}' | \\\n"
     "    bepi_cli serve --model=/tmp/m.txt\n"},
    {"metrics-export",
     "metrics-export --snapshot=FILE [--out=FILE]",
     "bepi_cli metrics-export — render a --metrics-out snapshot file as\n"
     "Prometheus text exposition (format 0.0.4)\n"
     "  --snapshot=FILE  metrics snapshot JSON written by --metrics-out\n"
     "                   (required)\n"
     "  --out=FILE       destination path; stdout when omitted\n"
     "counters and gauges become `bepi_<name>` series; histograms become\n"
     "cumulative `le` bucket series with _sum/_count (and the recorded\n"
     "exemplar, when one exists). A live server answers the `metrics`\n"
     "verb with the same text; this command covers one-shot runs.\n"
     "example:\n"
     "  bepi_cli query --model=/tmp/m.txt --seed-node=3 \\\n"
     "    --metrics-out=/tmp/metrics.json\n"
     "  bepi_cli metrics-export --snapshot=/tmp/metrics.json\n"},
    {"verify-model",
     "verify-model --model=FILE",
     "bepi_cli verify-model — per-section integrity fsck of a model file\n"
     "  --model=FILE     model path (required)\n"
     "checks every section of a BEPI-MODEL v4 file against its stored\n"
     "CRC32C, then loads the model, since intact bytes can still fail to\n"
     "decode or factor. Any other header (including v1-v3 models) fails:\n"
     "re-run preprocess to regenerate the model.\n"
     "example:\n"
     "  bepi_cli verify-model --model=/tmp/m.txt\n"},
    {"help",
     "help       [command]",
     "bepi_cli help — print usage, or detailed help for one command\n"
     "example:\n"
     "  bepi_cli help query\n"},
};

const char kGlobalFlagsHelp[] =
    "global flags:\n"
    "  --threads=N           worker threads for parallel kernels and batch\n"
    "                        queries; 1 = serial, default = BEPI_THREADS or\n"
    "                        all hardware threads. Results are bit-identical\n"
    "                        at any thread count.\n"
    "  --kernel=MODE         query-kernel index path: auto (default;\n"
    "                        compact 32-bit indices when the model fits),\n"
    "                        wide (64-bit), compact (force; falls back to\n"
    "                        wide if the model does not fit). Also settable\n"
    "                        via BEPI_KERNEL. Scores are bit-identical on\n"
    "                        every path.\n"
    "  --no-fallbacks        disable the solver degradation chain\n"
    "  --fault-inject=SPEC   arm fault sites, e.g.\n"
    "                        ilu0.factor,gmres.stagnate:0:-1\n"
    "                        (SITE[:skip[:count]] or SITE@prob[@seed])\n"
    "  --metrics-out=FILE    enable metrics, write a JSON snapshot of all\n"
    "                        counters/gauges/histograms on exit\n"
    "  --trace-out=FILE      record trace spans, write Chrome trace-event\n"
    "                        JSON on exit (load in ui.perfetto.dev)\n"
    "  --log-level=LEVEL     debug|info|warning|error (default info;\n"
    "                        also settable via BEPI_LOG_LEVEL)\n";

/// Flag vocabulary per subcommand (global flags appended to each), fed to
/// Flags::Validate so an unknown or malformed flag fails fast naming the
/// offender instead of being silently ignored.
std::vector<FlagSpec> WithGlobalFlags(std::vector<FlagSpec> specs) {
  static const FlagSpec kGlobals[] = {
      {"threads", FlagType::kInt},
      {"kernel", FlagType::kString},
      {"no-fallbacks", FlagType::kBool},
      {"fault-inject", FlagType::kString},
      {"metrics-out", FlagType::kString},
      {"trace-out", FlagType::kString},
      {"log-level", FlagType::kString},
  };
  specs.insert(specs.end(), std::begin(kGlobals), std::end(kGlobals));
  return specs;
}

const std::map<std::string, std::vector<FlagSpec>>& CommandFlagSpecs() {
  static const auto* specs =
      new std::map<std::string, std::vector<FlagSpec>>{
          {"generate", WithGlobalFlags({{"out", FlagType::kString},
                                        {"dataset", FlagType::kString},
                                        {"scale", FlagType::kDouble},
                                        {"nodes", FlagType::kInt},
                                        {"edges", FlagType::kInt},
                                        {"deadends", FlagType::kDouble},
                                        {"seed", FlagType::kInt}})},
          {"stats", WithGlobalFlags({{"graph", FlagType::kString}})},
          {"preprocess",
           WithGlobalFlags({{"graph", FlagType::kString},
                            {"model", FlagType::kString},
                            {"mode", FlagType::kString},
                            {"k", FlagType::kDouble},
                            {"c", FlagType::kDouble},
                            {"tol", FlagType::kDouble},
                            {"checkpoint-dir", FlagType::kString}})},
          {"query", WithGlobalFlags({{"model", FlagType::kString},
                                     {"seed-node", FlagType::kInt},
                                     {"seeds-file", FlagType::kString},
                                     {"topk", FlagType::kInt},
                                     {"top-k", FlagType::kInt},
                                      {"dump-topk", FlagType::kString},
                                     {"warm-start", FlagType::kString},
                                     {"dump-scores", FlagType::kString},
                                     {"stats", FlagType::kBool},
                                     {"num-queries", FlagType::kInt},
                                     {"engine", FlagType::kString},
                                     {"graph", FlagType::kString},
                                     {"walks", FlagType::kInt},
                                     {"eps", FlagType::kDouble},
                                     {"delta", FlagType::kDouble},
                                     {"walk-seed", FlagType::kInt},
                                     {"deadline-ms", FlagType::kDouble},
                                     {"c", FlagType::kDouble}})},
          {"crosscheck",
           WithGlobalFlags({{"graph", FlagType::kString},
                            {"seeds", FlagType::kInt},
                            {"seed-node", FlagType::kInt},
                            {"query-eps", FlagType::kDouble},
                            {"walks", FlagType::kInt},
                            {"delta", FlagType::kDouble},
                            {"walk-seed", FlagType::kInt},
                            {"mode", FlagType::kString},
                            {"k", FlagType::kDouble},
                            {"c", FlagType::kDouble},
                            {"tol", FlagType::kDouble}})},
          {"rank", WithGlobalFlags({{"graph", FlagType::kString},
                                    {"seed-node", FlagType::kInt},
                                    {"topk", FlagType::kInt},
                                    {"mode", FlagType::kString},
                                    {"k", FlagType::kDouble},
                                    {"c", FlagType::kDouble},
                                    {"tol", FlagType::kDouble}})},
          {"serve",
           WithGlobalFlags({{"model", FlagType::kString},
                            {"socket", FlagType::kString},
                            {"slots", FlagType::kInt},
                            {"max-queue", FlagType::kInt},
                            {"default-deadline-ms", FlagType::kDouble},
                            {"drain-ms", FlagType::kDouble},
                            {"watchdog-ms", FlagType::kDouble},
                            {"wedge-ms", FlagType::kDouble},
                            {"max-line-bytes", FlagType::kInt},
                            {"write-timeout-ms", FlagType::kDouble},
                            {"max-conns", FlagType::kInt},
                            {"graph", FlagType::kString},
                            {"walks", FlagType::kInt},
                            {"delta", FlagType::kDouble},
                            {"walk-seed", FlagType::kInt},
                            {"slow-ms", FlagType::kDouble},
                            {"flight-dump", FlagType::kString},
                            {"cache-mb", FlagType::kInt},
                            {"batch-max", FlagType::kInt},
                            {"batch-window-ms", FlagType::kDouble}})},
          {"metrics-export",
           WithGlobalFlags({{"snapshot", FlagType::kString},
                            {"out", FlagType::kString}})},
          {"verify-model", WithGlobalFlags({{"model", FlagType::kString}})},
          {"help", WithGlobalFlags({})},
      };
  return *specs;
}

/// Process-lifetime cancel token observing the SIGINT/SIGTERM flag: every
/// one-shot command threads it through its solve so a ^C winds down at
/// the next cooperative checkpoint (committing checkpoint stages, keeping
/// telemetry flushable) instead of dying mid-write.
const CancelToken* ShutdownToken() {
  static CancelToken* token = [] {
    auto* t = new CancelToken();
    t->LinkFlag(ShutdownFlag());
    return t;
  }();
  return token;
}

int Usage() {
  std::fprintf(stderr, "usage: bepi_cli <command> [flags]\n");
  for (const CommandHelp& cmd : kCommands) {
    std::fprintf(stderr, "  %s\n", cmd.synopsis);
  }
  std::fprintf(stderr, "%s", kGlobalFlagsHelp);
  std::fprintf(stderr, "run `bepi_cli help <command>` for details.\n");
  return 2;
}

int CmdHelp(const std::string& topic) {
  if (topic.empty()) return Usage();
  for (const CommandHelp& cmd : kCommands) {
    if (topic == cmd.name) {
      std::fprintf(stdout, "%s%s", cmd.text, kGlobalFlagsHelp);
      return 0;
    }
  }
  std::fprintf(stderr, "unknown command '%s'\n", topic.c_str());
  return Usage();
}

Result<Graph> LoadGraphFlag(const Flags& flags) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    return Status::InvalidArgument("--graph is required");
  }
  return ReadEdgeListFile(path);
}

BepiOptions OptionsFromFlags(const Flags& flags) {
  BepiOptions options;
  const std::string mode = flags.GetString("mode", "bepi");
  if (mode == "bepi-b") {
    options.mode = BepiMode::kBasic;
  } else if (mode == "bepi-s") {
    options.mode = BepiMode::kSparsified;
  } else {
    options.mode = BepiMode::kPreconditioned;
  }
  options.hub_ratio = flags.GetDouble("k", 0.0);
  options.restart_prob = flags.GetDouble("c", 0.05);
  options.tolerance = flags.GetDouble("tol", 1e-9);
  options.enable_fallbacks = !flags.Has("no-fallbacks");
  options.cancel = ShutdownToken();
  return options;
}

void PrintQueryReport(const QueryStats& stats) {
  if (stats.report.fallback_hops() > 0 ||
      stats.outcome != SolveOutcome::kConverged) {
    std::fprintf(stderr, "solver chain: %s (%lld fallback hop%s)\n",
                 stats.report.Summary().c_str(),
                 static_cast<long long>(stats.report.fallback_hops()),
                 stats.report.fallback_hops() == 1 ? "" : "s");
  }
}

void PrintTopK(const Vector& scores, index_t seed, index_t topk) {
  Table table({"rank", "node", "score"});
  auto ranking = TopK(scores, topk, seed);
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    table.AddRow({Table::Int(static_cast<long long>(i) + 1),
                  Table::Int(ranking[i].first),
                  Table::Num(ranking[i].second, 6)});
  }
  table.Print();
}

/// Shared --walks/--eps/--delta/--walk-seed/--c vocabulary of the walk
/// engine (query --engine=mc, crosscheck, and the serve/query fallback).
McOptions McOptionsFromFlags(const Flags& flags, std::uint64_t default_walks,
                             std::uint64_t default_seed) {
  McOptions options;
  options.restart_prob = flags.GetDouble("c", 0.05);
  options.walks =
      static_cast<std::uint64_t>(flags.GetInt(
          "walks", static_cast<index_t>(default_walks)));
  options.target_eps = flags.GetDouble("eps", 0.0);
  options.delta = flags.GetDouble("delta", 0.01);
  options.seed = static_cast<std::uint64_t>(
      flags.GetInt("walk-seed", static_cast<index_t>(default_seed)));
  return options;
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Usage();
  Result<Graph> g = Status::Internal("unreachable");
  if (flags.Has("dataset")) {
    auto spec = FindDataset(flags.GetString("dataset", ""));
    if (!spec.ok()) return Fail(spec.status());
    DatasetSpec scaled = ScaleSpec(*spec, flags.GetDouble("scale", 1.0));
    g = GenerateDataset(scaled);
  } else {
    Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
    RmatOptions options;
    options.num_nodes = flags.GetInt("nodes", 10000);
    options.num_edges = flags.GetInt("edges", 100000);
    options.deadend_fraction = flags.GetDouble("deadends", 0.0);
    g = GenerateRmat(options, &rng);
  }
  if (!g.ok()) return Fail(g.status());
  Status status = WriteEdgeListFile(*g, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %lld nodes, %lld edges to %s\n",
              static_cast<long long>(g->num_nodes()),
              static_cast<long long>(g->num_edges()), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto g = LoadGraphFlag(flags);
  if (!g.ok()) return Fail(g.status());
  const auto deadends = g->Deadends();
  ComponentInfo wcc = ConnectedComponents(SymmetrizePattern(g->adjacency()));
  ComponentInfo scc = StronglyConnectedComponents(g->adjacency());
  index_t max_wcc = 0, max_scc = 0;
  for (index_t s : wcc.sizes) max_wcc = std::max(max_wcc, s);
  for (index_t s : scc.sizes) max_scc = std::max(max_scc, s);
  Table table({"metric", "value"});
  table.AddRow({"nodes", Table::IntGrouped(g->num_nodes())});
  table.AddRow({"edges", Table::IntGrouped(g->num_edges())});
  table.AddRow({"deadends", Table::IntGrouped(
                                static_cast<long long>(deadends.size()))});
  table.AddRow({"weak components", Table::IntGrouped(wcc.num_components)});
  table.AddRow({"largest weak component", Table::IntGrouped(max_wcc)});
  table.AddRow({"strong components", Table::IntGrouped(scc.num_components)});
  table.AddRow({"largest strong component", Table::IntGrouped(max_scc)});
  table.Print();
  return 0;
}

int CmdPreprocess(const Flags& flags) {
  auto g = LoadGraphFlag(flags);
  if (!g.ok()) return Fail(g.status());
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Usage();
  BepiSolver solver(OptionsFromFlags(flags));
  Status status;
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  if (!checkpoint_dir.empty()) {
    CheckpointManager checkpoints(checkpoint_dir);
    status = solver.Preprocess(*g, &checkpoints);
  } else {
    status = solver.Preprocess(*g);
  }
  if (!status.ok()) return Fail(status);
  status = solver.SaveFile(model_path);
  if (!status.ok()) return Fail(status);
  std::printf("preprocessed %s in %.3f s (n1=%lld n2=%lld n3=%lld, "
              "|S|=%lld), model (%s) -> %s\n",
              solver.name().c_str(), solver.preprocess_seconds(),
              static_cast<long long>(solver.info().n1),
              static_cast<long long>(solver.info().n2),
              static_cast<long long>(solver.info().n3),
              static_cast<long long>(solver.info().schur_nnz),
              HumanBytes(solver.PreprocessedBytes()).c_str(),
              model_path.c_str());
  if (solver.kernels() != nullptr) {
    std::printf("kernel path: %s (%s)\n",
                KernelPathName(solver.kernels()->path),
                solver.kernels()->reason.c_str());
  }
  if (!checkpoint_dir.empty()) {
    std::printf("checkpoints: %lld written, %lld resumed, %.3f s overhead\n",
                static_cast<long long>(solver.info().checkpoints_written),
                static_cast<long long>(solver.info().checkpoints_resumed),
                solver.info().checkpoint_seconds);
  }
  return 0;
}

int CmdVerifyModel(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Usage();
  std::ifstream in(model_path, std::ios::binary);
  if (!in) {
    return Fail(Status::IoError("cannot open for reading: " + model_path));
  }
  const IntegrityReport report = CheckIntegrity(in, "BEPI-MODEL v4");
  if (report.magic.empty()) {
    return Fail(Status::IoError(report.overall.message() +
                                "; re-run preprocess to regenerate it"));
  }
  std::printf("%s: %s, %zu sections\n", model_path.c_str(),
              report.magic.c_str(), report.sections.size());
  Table table({"section", "offset", "bytes", "crc32c", "status"});
  table.AddRow({"(format)", "0",
                Table::Int(static_cast<long long>(report.magic.size()) + 1),
                "", "v4"});
  char crc_hex[32];
  for (const SectionCheck& check : report.sections) {
    if (check.ok) {
      std::snprintf(crc_hex, sizeof(crc_hex), "%08x", check.stored_crc);
    } else {
      std::snprintf(crc_hex, sizeof(crc_hex), "%08x!=%08x",
                    check.stored_crc, check.actual_crc);
    }
    table.AddRow({check.name,
                  Table::Int(static_cast<long long>(check.offset)),
                  Table::Int(static_cast<long long>(check.length)), crc_hex,
                  check.ok ? "ok" : "CORRUPT"});
  }
  table.AddRow({"(manifest)", "", "", "",
                report.manifest_ok ? "ok" : "CORRUPT"});
  table.Print();
  if (!report.overall.ok()) return Fail(report.overall);
  std::printf("all sections verified\n");
  // Checksums prove the bytes are intact; only a real load proves they
  // still decode into a model the query path can run.
  auto solver = BepiSolver::LoadFile(model_path);
  if (!solver.ok()) return Fail(solver.status());
  std::printf("load check passed (n=%lld)\n",
              static_cast<long long>(solver->decomposition().n));
  return 0;
}

/// `query --stats`: runs --num-queries consecutive seeds and prints a
/// latency table (exact percentiles over the measured sample, not the
/// bucketed histogram approximation).
int QueryLatencyStats(const BepiSolver& solver, index_t first_seed,
                      index_t num_queries) {
  const index_t n = solver.decomposition().n;
  if (num_queries <= 0) {
    return Fail(Status::InvalidArgument("--num-queries must be > 0"));
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(num_queries));
  double total_seconds = 0.0;
  long long total_iterations = 0;
  long long fallback_hops = 0;
  QueryControl control;
  control.cancel = ShutdownToken();
  for (index_t i = 0; i < num_queries; ++i) {
    const index_t seed = (first_seed + i) % n;
    QueryStats stats;
    auto scores = solver.Query(seed, &stats, nullptr, control);
    if (!scores.ok()) return Fail(scores.status());
    latencies_ms.push_back(stats.seconds * 1e3);
    total_seconds += stats.seconds;
    total_iterations += stats.total_iterations;
    fallback_hops += stats.report.fallback_hops();
  }
  Table table({"metric", "value"});
  table.AddRow({"queries", Table::Int(num_queries)});
  table.AddRow({"mean (ms)",
                Table::Num(total_seconds * 1e3 /
                               static_cast<double>(num_queries), 3)});
  table.AddRow({"p50 (ms)", Table::Num(ExactQuantile(latencies_ms, 0.50), 3)});
  table.AddRow({"p90 (ms)", Table::Num(ExactQuantile(latencies_ms, 0.90), 3)});
  table.AddRow({"p95 (ms)", Table::Num(ExactQuantile(latencies_ms, 0.95), 3)});
  table.AddRow({"p99 (ms)", Table::Num(ExactQuantile(latencies_ms, 0.99), 3)});
  table.AddRow({"max (ms)", Table::Num(ExactQuantile(latencies_ms, 1.0), 3)});
  table.AddRow({"inner iterations", Table::Int(total_iterations)});
  table.AddRow({"fallback hops", Table::Int(fallback_hops)});
  table.Print();
  return 0;
}

/// --warm-start vocabulary: absent/empty = cold (default), "mc" = seed
/// the Schur solve from the attached Monte-Carlo engine (needs --graph).
Result<bool> WarmStartFromFlags(const Flags& flags) {
  const std::string ws = flags.GetString("warm-start", "");
  if (ws.empty()) return false;
  if (ws == "mc") return true;
  return Status::InvalidArgument("--warm-start must be \"mc\", got \"" + ws +
                                 "\"");
}

/// Per-query top-k options from the --top-k/--eps flags (exact mode
/// unless --eps > 0). Callers exclude the seed, as `--topk` and the serve
/// top_k reply do.
TopKOptions TopKOptionsFromFlags(const Flags& flags) {
  TopKOptions opts;
  opts.k = flags.GetInt("top-k", 10);
  const double eps = flags.GetDouble("eps", 0.0);
  if (eps > 0.0) {
    opts.mode = TopKMode::kEps;
    opts.eps = static_cast<real_t>(eps);
  }
  return opts;
}

/// Full-precision ranking dump, one "node score" line per entry: `cmp` of
/// two dumps of the same query across --kernel/--threads is the exact-mode
/// byte-identity check smoke_topk runs in CI.
int DumpTopKFile(const std::vector<std::pair<index_t, real_t>>& entries,
                 const std::string& dump_path) {
  AtomicFileWriter writer(dump_path);
  if (!writer.status().ok()) return Fail(writer.status());
  char line[80];
  for (const auto& [node, score] : entries) {
    std::snprintf(line, sizeof(line), "%lld %.17g\n",
                  static_cast<long long>(node), static_cast<double>(score));
    writer.stream() << line;
  }
  Status status = writer.Commit();
  if (!status.ok()) return Fail(status);
  std::printf("ranking written to %s\n", dump_path.c_str());
  return 0;
}

/// `query --top-k`: single-seed top-k query.
int QueryTopKSingle(const BepiSolver& solver, const Flags& flags,
                    index_t seed) {
  TopKOptions opts = TopKOptionsFromFlags(flags);
  opts.exclude = seed;
  auto warm = WarmStartFromFlags(flags);
  if (!warm.ok()) return Fail(warm.status());
  QueryStats stats;
  QueryControl control;
  control.cancel = ShutdownToken();
  control.warm_start_mc = *warm;
  auto r = solver.QueryTopK(seed, opts, &stats, nullptr, control);
  if (!r.ok()) return Fail(r.status());
  const TopKResult& result = *r;
  std::printf("top-%lld query (%s mode) took %.3f ms\n",
              static_cast<long long>(opts.k), TopKModeName(opts.mode),
              stats.seconds * 1e3);
  PrintQueryReport(stats);
  if (opts.mode == TopKMode::kEps) {
    std::printf("per-score error bound: +/-%.3g\n",
                static_cast<double>(result.error_bound));
  }
  Table table({"rank", "node", "score"});
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    table.AddRow({Table::Int(static_cast<long long>(i) + 1),
                  Table::Int(result.entries[i].first),
                  Table::Num(result.entries[i].second, 6)});
  }
  table.Print();
  const std::string dump_path = flags.GetString("dump-topk", "");
  if (!dump_path.empty()) return DumpTopKFile(result.entries, dump_path);
  return 0;
}

/// `query --seeds-file`: answers every seed in the file concurrently via
/// BatchQueryEngine and prints one summary row per seed plus throughput.
int QueryBatch(const BepiSolver& solver, const Flags& flags,
               const std::string& seeds_path) {
  auto seeds = ReadSeedsFile(seeds_path);
  if (!seeds.ok()) return Fail(seeds.status());
  if (seeds->empty()) {
    return Fail(Status::InvalidArgument("seeds file has no seeds"));
  }
  const index_t n = solver.decomposition().n;
  for (index_t s : *seeds) {
    if (s < 0 || s >= n) {
      return Fail(Status::OutOfRange("seed " + std::to_string(s) +
                                     " out of range [0, " +
                                     std::to_string(n) + ")"));
    }
  }
  BatchQueryOptions batch_options;
  batch_options.cancel = ShutdownToken();
  auto warm = WarmStartFromFlags(flags);
  if (!warm.ok()) return Fail(warm.status());
  batch_options.warm_start_mc = *warm;
  if (flags.Has("top-k")) batch_options.topk = TopKOptionsFromFlags(flags);
  const bool topk_mode = batch_options.topk.k > 0;
  BatchQueryEngine engine(solver, batch_options);
  auto batch = engine.Run(*seeds);
  if (!batch.ok()) return Fail(batch.status());
  Table table({"seed", "ms", "iterations", "top node", "score"});
  for (std::size_t i = 0; i < seeds->size(); ++i) {
    const auto top = topk_mode
                         ? batch->topk[i].entries
                         : TopK(batch->vectors[i], 1, (*seeds)[i]);
    table.AddRow({Table::Int((*seeds)[i]),
                  Table::Num(batch->stats[i].seconds * 1e3, 3),
                  Table::Int(batch->stats[i].total_iterations),
                  top.empty() ? "-" : Table::Int(top[0].first),
                  top.empty() ? "-" : Table::Num(top[0].second, 6)});
  }
  table.Print();
  std::printf("%zu queries in %.3f s (%.1f q/s, %d worker thread%s)\n",
              seeds->size(), batch->seconds, batch->throughput_qps(),
              ParallelContext::Global().num_threads(),
              ParallelContext::Global().num_threads() == 1 ? "" : "s");
  return 0;
}

/// Full-precision dump: round-trips every double exactly, so `cmp` of
/// two dumps is a bit-identity check on the score vectors.
int DumpScores(const Vector& scores, const std::string& dump_path) {
  AtomicFileWriter writer(dump_path);
  if (!writer.status().ok()) return Fail(writer.status());
  char line[64];
  for (real_t s : scores) {
    std::snprintf(line, sizeof(line), "%.17g\n", s);
    writer.stream() << line;
  }
  Status status = writer.Commit();
  if (!status.ok()) return Fail(status);
  std::printf("scores written to %s\n", dump_path.c_str());
  return 0;
}

/// `query --engine=mc`: anytime Monte-Carlo answer straight off the raw
/// graph — no model, no preprocessed factors, just walks plus a bound.
int CmdQueryMc(const Flags& flags) {
  auto g = LoadGraphFlag(flags);
  if (!g.ok()) return Fail(g.status());
  if (!flags.Has("seed-node")) return Usage();
  const index_t seed = flags.GetInt("seed-node", 0);
  McWalkEngine engine(*g);
  McOptions options = McOptionsFromFlags(flags, /*default_walks=*/100'000,
                                         /*default_seed=*/20170514);
  CancelToken token;
  token.LinkFlag(ShutdownFlag());
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if (deadline_ms > 0.0) {
    token.SetDeadlineAfter(std::chrono::nanoseconds(
        static_cast<std::int64_t>(deadline_ms * 1e6)));
  }
  options.cancel = &token;
  options.allow_partial = true;
  auto est = engine.EstimateSeed(seed, options);
  if (!est.ok()) return Fail(est.status());
  std::printf(
      "mc estimate: %llu walks (%llu steps) in %.3f ms, outcome %s\n",
      static_cast<unsigned long long>(est->walks_completed),
      static_cast<unsigned long long>(est->total_steps), est->seconds * 1e3,
      SolveOutcomeName(est->outcome));
  std::printf(
      "confidence (>= %.5g): per-coordinate +/-%.3g, sup-norm +/-%.3g\n",
      1.0 - est->delta, static_cast<double>(est->hoeffding_eps),
      static_cast<double>(est->uniform_eps));
  PrintTopK(est->scores, seed, flags.GetInt("topk", 10));
  const std::string dump_path = flags.GetString("dump-scores", "");
  if (!dump_path.empty()) return DumpScores(est->scores, dump_path);
  return 0;
}

int CmdQuery(const Flags& flags) {
  const std::string engine_name = flags.GetString("engine", "exact");
  if (engine_name == "mc") return CmdQueryMc(flags);
  if (engine_name != "exact") {
    return Fail(Status::InvalidArgument("--engine must be exact or mc"));
  }
  const std::string model_path = flags.GetString("model", "");
  const std::string seeds_file = flags.GetString("seeds-file", "");
  if (model_path.empty() ||
      (!flags.Has("seed-node") && seeds_file.empty())) {
    return Usage();
  }
  auto solver = BepiSolver::LoadFile(model_path);
  if (!solver.ok()) return Fail(solver.status());
  // --graph alongside the exact engine arms the Monte-Carlo terminal
  // stage: the graph and engine must outlive every query below.
  std::optional<Graph> fallback_graph;
  std::optional<McWalkEngine> fallback_engine;
  if (flags.Has("graph")) {
    auto g = LoadGraphFlag(flags);
    if (!g.ok()) return Fail(g.status());
    fallback_graph.emplace(std::move(*g));
    fallback_engine.emplace(*fallback_graph);
    const McOptions mo = McOptionsFromFlags(flags, /*default_walks=*/200'000,
                                            /*default_seed=*/20170514);
    McFallbackOptions fo;
    fo.walks = mo.walks;
    fo.delta = mo.delta;
    fo.seed = mo.seed;
    Status attached = solver->AttachMcFallback(&*fallback_engine, fo);
    if (!attached.ok()) return Fail(attached);
  }
  if (!seeds_file.empty()) return QueryBatch(*solver, flags, seeds_file);
  const index_t seed = flags.GetInt("seed-node", 0);
  if (flags.Has("stats")) {
    return QueryLatencyStats(*solver, seed, flags.GetInt("num-queries", 100));
  }
  if (flags.Has("top-k")) return QueryTopKSingle(*solver, flags, seed);
  QueryStats stats;
  QueryControl control;
  control.cancel = ShutdownToken();
  auto warm = WarmStartFromFlags(flags);
  if (!warm.ok()) return Fail(warm.status());
  control.warm_start_mc = *warm;
  auto scores = solver->Query(seed, &stats, nullptr, control);
  if (!scores.ok()) return Fail(scores.status());
  std::printf("query took %.3f ms (%lld inner iterations)\n",
              stats.seconds * 1e3, static_cast<long long>(stats.iterations));
  PrintQueryReport(stats);
  if (!stats.report.attempts.empty() &&
      stats.report.attempts.back().stage == "mc") {
    std::printf("mc terminal stage answered: %lld walks, "
                "error bound +/-%.3g\n",
                static_cast<long long>(stats.iterations),
                static_cast<double>(stats.residual));
  }
  PrintTopK(*scores, seed, flags.GetInt("topk", 10));
  const std::string dump_path = flags.GetString("dump-scores", "");
  if (!dump_path.empty()) return DumpScores(*scores, dump_path);
  return 0;
}

int CmdRank(const Flags& flags) {
  auto g = LoadGraphFlag(flags);
  if (!g.ok()) return Fail(g.status());
  if (!flags.Has("seed-node")) return Usage();
  BepiSolver solver(OptionsFromFlags(flags));
  Status status = solver.Preprocess(*g);
  if (!status.ok()) return Fail(status);
  const index_t seed = flags.GetInt("seed-node", 0);
  QueryStats stats;
  QueryControl control;
  control.cancel = ShutdownToken();
  auto scores = solver.Query(seed, &stats, nullptr, control);
  if (!scores.ok()) return Fail(scores.status());
  PrintQueryReport(stats);
  PrintTopK(*scores, seed, flags.GetInt("topk", 10));
  return 0;
}

/// `crosscheck`: the self-verification layer. Solves each check seed via
/// the solver chain AND via independent Monte-Carlo walks, then verifies
/// |exact - mc| <= mc confidence bound + the solver's own reported
/// residual/bound, per node. Any violation is a loud failure: either an
/// engine is wrong or a bound is dishonest, and both matter.
int CmdCrosscheck(const Flags& flags) {
  auto g = LoadGraphFlag(flags);
  if (!g.ok()) return Fail(g.status());
  BepiOptions options = OptionsFromFlags(flags);
  BepiSolver solver(options);
  Status status = solver.Preprocess(*g);
  if (!status.ok()) return Fail(status);
  McWalkEngine engine(*g);
  // Arm the terminal stage so a fault-injected chain still answers; its
  // default walk seed (20170514) is distinct from the oracle's default
  // below, so even a chain that bottoms out in MC is checked against
  // independent randomness.
  McFallbackOptions fo;
  fo.delta = flags.GetDouble("delta", 0.001);
  status = solver.AttachMcFallback(&engine, fo);
  if (!status.ok()) return Fail(status);

  McOptions oracle = McOptionsFromFlags(flags, /*default_walks=*/200'000,
                                        /*default_seed=*/987654321);
  oracle.restart_prob = options.restart_prob;
  oracle.delta = flags.GetDouble("delta", 0.001);
  oracle.cancel = ShutdownToken();

  const index_t n = g->num_nodes();
  std::vector<index_t> seeds;
  if (flags.Has("seed-node")) {
    seeds.push_back(flags.GetInt("seed-node", 0));
  } else {
    const index_t count = std::max<index_t>(1, flags.GetInt("seeds", 3));
    for (index_t i = 0; i < count; ++i) {
      seeds.push_back((i * 7919 + 1) % n);  // deterministic spread
    }
  }

  Table table({"seed", "stage", "max |diff|", "allowed", "verdict"});
  int violations = 0;
  const double query_eps = flags.GetDouble("query-eps", 0.0);
  for (index_t seed : seeds) {
    QueryStats stats;
    QueryControl control;
    control.cancel = ShutdownToken();
    control.eps = static_cast<real_t>(query_eps);
    auto exact = solver.Query(seed, &stats, nullptr, control);
    if (!exact.ok()) return Fail(exact.status());
    auto est = engine.EstimateSeed(seed, oracle);
    if (!est.ok()) return Fail(est.status());
    // The solver side's own error contribution: a converged Krylov/power
    // attempt reports a residual ~tol; an MC terminal attempt reports its
    // confidence half-width. With --query-eps the truncated solve's
    // propagated per-score bound takes their place — so a dishonest
    // eps-mode bound fails this check exactly like a wrong engine.
    const real_t solver_bound =
        query_eps > 0.0 && stats.error_bound > 0.0 ? stats.error_bound
                                                   : stats.residual;
    real_t worst_diff = 0.0, worst_allowed = 0.0;
    index_t worst_node = -1;
    bool seed_ok = true;
    for (index_t v = 0; v < n; ++v) {
      const real_t diff =
          std::abs((*exact)[static_cast<std::size_t>(v)] -
                   est->scores[static_cast<std::size_t>(v)]);
      const real_t allowed = est->CheckBound(v) + solver_bound + 1e-12;
      if (diff > worst_diff) {
        worst_diff = diff;
        worst_allowed = allowed;
        worst_node = v;
      }
      if (diff > allowed) seed_ok = false;
    }
    if (!seed_ok) ++violations;
    const std::string stage = stats.report.attempts.empty()
                                  ? "direct"
                                  : stats.report.attempts.back().stage;
    table.AddRow({Table::Int(seed), stage, Table::Num(worst_diff, 6),
                  Table::Num(worst_allowed, 6),
                  seed_ok ? "ok" : "VIOLATION"});
    if (!seed_ok) {
      std::fprintf(stderr,
                   "seed %lld: node %lld differs by %.6g > allowed %.6g "
                   "(chain: %s)\n",
                   static_cast<long long>(seed),
                   static_cast<long long>(worst_node),
                   static_cast<double>(worst_diff),
                   static_cast<double>(worst_allowed),
                   stats.report.Summary().c_str());
    }
  }
  table.Print();
  if (violations > 0) {
    std::fprintf(stderr,
                 "CROSSCHECK FAILED: %d of %zu seeds outside the combined "
                 "confidence bound — an engine is wrong or a bound is "
                 "dishonest\n",
                 violations, seeds.size());
    return 1;
  }
  std::printf("crosscheck passed: %zu seed%s, engines agree within "
              "confidence bounds (oracle: %llu walks, delta=%.3g)\n",
              seeds.size(), seeds.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(oracle.walks), oracle.delta);
  return 0;
}

int CmdServe(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Usage();
  auto solver = BepiSolver::LoadFile(model_path);
  if (!solver.ok()) return Fail(solver.status());
  // --graph arms the Monte-Carlo terminal stage; graph and engine must
  // outlive the server (declared before it, destroyed after).
  std::optional<Graph> fallback_graph;
  std::optional<McWalkEngine> fallback_engine;
  if (flags.Has("graph")) {
    auto g = LoadGraphFlag(flags);
    if (!g.ok()) return Fail(g.status());
    fallback_graph.emplace(std::move(*g));
    fallback_engine.emplace(*fallback_graph);
    const McOptions mo = McOptionsFromFlags(flags, /*default_walks=*/200'000,
                                            /*default_seed=*/20170514);
    McFallbackOptions fo;
    fo.walks = mo.walks;
    fo.delta = mo.delta;
    fo.seed = mo.seed;
    Status attached = solver->AttachMcFallback(&*fallback_engine, fo);
    if (!attached.ok()) return Fail(attached);
  }
  ServeOptions options;
  options.slots = static_cast<int>(flags.GetInt("slots", 2));
  options.max_queue = flags.GetInt("max-queue", 64);
  options.default_deadline_ms = flags.GetDouble("default-deadline-ms", 0.0);
  options.drain_ms = flags.GetDouble("drain-ms", 5000.0);
  options.watchdog_ms = flags.GetDouble("watchdog-ms", 250.0);
  options.wedge_ms = flags.GetDouble("wedge-ms", 30000.0);
  options.max_line_bytes = static_cast<std::size_t>(
      flags.GetInt("max-line-bytes", 1 << 20));
  options.write_timeout_ms = flags.GetDouble("write-timeout-ms", 5000.0);
  options.max_conns = static_cast<int>(flags.GetInt("max-conns", 64));
  options.slow_ms = flags.GetDouble("slow-ms", 0.0);
  options.flight_dump_path =
      flags.GetString("flight-dump", "bepi-flightrec.json");
  options.cache_mb = static_cast<int>(flags.GetInt("cache-mb", 0));
  options.batch_max = static_cast<int>(flags.GetInt("batch-max", 8));
  options.batch_window_ms = flags.GetDouble("batch-window-ms", 0.0);
  QueryServer server(*solver, options);
  const std::string socket_path = flags.GetString("socket", "");
  const Status status = socket_path.empty()
                            ? server.ServeStream(std::cin, std::cout)
                            : server.ServeUnixSocket(socket_path);
  if (!status.ok()) return Fail(status);
  return 0;
}

/// Renders a --metrics-out snapshot file as Prometheus text exposition.
/// The snapshot's histograms carry cumulative [upper_bound, count] bucket
/// pairs exactly so this command can reconstruct the `le` series offline —
/// the same renderer the server's `metrics` verb uses live.
int CmdMetricsExport(const Flags& flags) {
  const std::string snapshot_path = flags.GetString("snapshot", "");
  if (snapshot_path.empty()) return Usage();
  auto text = ReadFileToString(snapshot_path);
  if (!text.ok()) return Fail(text.status());
  auto parsed = ParseJson(*text);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->type != JsonValue::Type::kObject) {
    return Fail(Status::InvalidArgument(snapshot_path +
                                        ": snapshot root is not an object"));
  }
  const auto section = [&](const char* name) -> const JsonValue* {
    const auto it = parsed->object_value.find(name);
    if (it == parsed->object_value.end() ||
        it->second.type != JsonValue::Type::kObject) {
      return nullptr;
    }
    return &it->second;
  };
  const auto number = [](const JsonValue& obj, const char* key,
                         double fallback) {
    const auto it = obj.object_value.find(key);
    return it != obj.object_value.end() &&
                   it->second.type == JsonValue::Type::kNumber
               ? it->second.number_value
               : fallback;
  };
  std::string out;
  if (const JsonValue* counters = section("counters")) {
    for (const auto& [name, v] : counters->object_value) {
      if (v.type != JsonValue::Type::kNumber) continue;
      PrometheusAppendCounter(&out, name,
                              static_cast<std::uint64_t>(v.number_value));
    }
  }
  if (const JsonValue* gauges = section("gauges")) {
    for (const auto& [name, v] : gauges->object_value) {
      if (v.type != JsonValue::Type::kNumber) continue;
      PrometheusAppendGauge(&out, name, v.number_value);
    }
  }
  if (const JsonValue* histograms = section("histograms")) {
    for (const auto& [name, h] : histograms->object_value) {
      if (h.type != JsonValue::Type::kObject) continue;
      std::vector<PromBucket> buckets;
      const auto bit = h.object_value.find("buckets");
      if (bit != h.object_value.end() &&
          bit->second.type == JsonValue::Type::kArray) {
        for (const JsonValue& pair : bit->second.array_value) {
          if (pair.type != JsonValue::Type::kArray ||
              pair.array_value.size() != 2 ||
              pair.array_value[0].type != JsonValue::Type::kNumber ||
              pair.array_value[1].type != JsonValue::Type::kNumber) {
            return Fail(Status::DataLoss(snapshot_path + ": histogram " +
                                         name + " has a malformed bucket"));
          }
          buckets.push_back(PromBucket{
              pair.array_value[0].number_value,
              static_cast<std::uint64_t>(pair.array_value[1].number_value)});
        }
      }
      HistogramExemplar exemplar;
      const auto eit = h.object_value.find("exemplar");
      if (eit != h.object_value.end() &&
          eit->second.type == JsonValue::Type::kObject) {
        const JsonValue& e = eit->second;
        exemplar.valid = true;
        exemplar.value = number(e, "value", 0.0);
        exemplar.ts_unix_seconds = number(e, "ts", 0.0);
        const auto lit = e.object_value.find("label");
        if (lit != e.object_value.end() &&
            lit->second.type == JsonValue::Type::kString) {
          exemplar.label = lit->second.string_value;
        }
      }
      PrometheusAppendHistogram(
          &out, name, buckets, number(h, "sum", 0.0),
          static_cast<std::uint64_t>(number(h, "count", 0.0)), exemplar);
    }
  }
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  AtomicFileWriter writer(out_path);
  if (!writer.status().ok()) return Fail(writer.status());
  writer.stream() << out;
  const Status committed = writer.Commit();
  if (!committed.ok()) return Fail(committed);
  std::fprintf(stderr, "prometheus exposition written to %s\n",
               out_path.c_str());
  return 0;
}

int RunCommand(const std::string& command, const Flags& flags,
               const std::string& help_topic) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "preprocess") return CmdPreprocess(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "rank") return CmdRank(flags);
  if (command == "crosscheck") return CmdCrosscheck(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "metrics-export") return CmdMetricsExport(flags);
  if (command == "verify-model") return CmdVerifyModel(flags);
  if (command == "help") return CmdHelp(help_topic);
  return Usage();
}

/// Writes the telemetry requested via --metrics-out / --trace-out. Runs
/// after the command so the snapshot covers everything it did, even the
/// work preceding a failure.
Status WriteTelemetry(const std::string& metrics_out,
                      const std::string& trace_out) {
  if (!metrics_out.empty()) {
    AtomicFileWriter writer(metrics_out);
    BEPI_RETURN_IF_ERROR(writer.status());
    writer.stream() << MetricsRegistry::Global().SnapshotJson() << "\n";
    BEPI_RETURN_IF_ERROR(writer.Commit());
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    BEPI_RETURN_IF_ERROR(Tracing::WriteChromeTraceFile(trace_out));
    std::fprintf(stderr, "trace written to %s (load in ui.perfetto.dev)\n",
                 trace_out.c_str());
  }
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  bepi::Flags flags = bepi::Flags::Parse(argc - 1, argv + 1);
  // Schema check before any work: an unknown or malformed flag is a hard
  // error naming the offender, never a silent no-op.
  const auto& spec_map = CommandFlagSpecs();
  const auto spec_it = spec_map.find(command);
  if (spec_it != spec_map.end()) {
    const bepi::Status valid = flags.Validate(spec_it->second);
    if (!valid.ok()) {
      std::fprintf(stderr, "error: %s\nrun `bepi_cli help %s` for usage.\n",
                   valid.message().c_str(), command.c_str());
      return 2;
    }
  }
  bepi::InstallShutdownHandler();
  if (flags.Has("log-level")) {
    const auto level = bepi::ParseLogLevel(flags.GetString("log-level", ""));
    if (!level.has_value()) {
      return Fail(bepi::Status::InvalidArgument(
          "unknown --log-level (use debug|info|warning|error)"));
    }
    bepi::SetLogLevel(*level);
  }
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (!metrics_out.empty()) bepi::SetMetricsEnabled(true);
  if (!trace_out.empty()) bepi::Tracing::Start();
  if (flags.Has("fault-inject")) {
    bepi::Status status = bepi::FaultInjector::Global().Configure(
        flags.GetString("fault-inject", ""));
    if (!status.ok()) return Fail(status);
  }
  if (flags.Has("threads")) {
    bepi::Status status = bepi::ParallelContext::Global().SetNumThreads(
        static_cast<int>(flags.GetInt("threads", 0)));
    if (!status.ok()) return Fail(status);
  }
  if (flags.Has("kernel")) {
    auto path = bepi::ParseKernelPath(flags.GetString("kernel", ""));
    if (!path.ok()) return Fail(path.status());
    bepi::SetGlobalKernelPath(*path);
  }
  // `help query` arrives as a bare positional, not a --flag (the command
  // itself is argv[1], which Parse skips as the program-name slot).
  const auto& positional = flags.positional();
  const std::string help_topic =
      command == "help" && !positional.empty() ? positional[0] : "";
  int rc = RunCommand(command, flags, help_topic);
  // Telemetry flushes even on a signal-cancelled run: the command wound
  // down cooperatively, so the registry snapshot is consistent.
  const bepi::Status telemetry = WriteTelemetry(metrics_out, trace_out);
  if (!telemetry.ok() && rc == 0) rc = Fail(telemetry);
  if (rc != 0 && bepi::ShutdownRequested()) {
    rc = 128 + bepi::ShutdownSignal();  // conventional ^C exit (130)
  }
  return rc;
}
