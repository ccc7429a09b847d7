// The serve stack: strict protocol parsing, transports, admission
// control, and QueryServer end-to-end over in-memory streams and a real
// Unix-domain socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.hpp"
#include "common/flightrec.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "core/bepi.hpp"
#include "engine/mc/mc.hpp"
#include "server/admission.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

// --- JSON parser -------------------------------------------------------

TEST(ParseJson, AcceptsScalarsObjectsArrays) {
  EXPECT_TRUE(ParseJson("null").ok());
  EXPECT_TRUE(ParseJson("true").ok());
  EXPECT_TRUE(ParseJson("-12.5e3").ok());
  EXPECT_TRUE(ParseJson("\"hi\\n\\u0041\"").ok());
  auto v = ParseJson(R"({"a":[1,2,{"b":null}],"c":"x"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type, JsonValue::Type::kObject);
  EXPECT_EQ(v->object_value.at("a").array_value.size(), 3u);
  EXPECT_EQ(v->object_value.at("c").string_value, "x");
}

TEST(ParseJson, TracksIntegrality) {
  EXPECT_TRUE(ParseJson("42")->number_is_integral);
  EXPECT_FALSE(ParseJson("42.0")->number_is_integral);
  EXPECT_FALSE(ParseJson("4e2")->number_is_integral);
  EXPECT_TRUE(ParseJson("-7")->number_is_integral);
}

TEST(ParseJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "[1,]", "{\"a\":}", "01", "1.", ".5", "1e",
        "\"unterminated", "\"bad\\q\"", "tru", "nulll", "{\"a\":1}garbage",
        "{\"a\":1,\"a\":2}", "\"\\ud800\"", "\"\\udc00\"", "'single'",
        "{\"a\" 1}", "[1 2]", "+1", "--1", "\x01"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(ParseJson, RejectsRawControlCharactersInStrings) {
  EXPECT_FALSE(ParseJson(std::string("\"a\nb\"")).ok());
  EXPECT_FALSE(ParseJson(std::string("\"a\tb\"")).ok());
  EXPECT_TRUE(ParseJson("\"a\\tb\"").ok());
}

TEST(ParseJson, EnforcesDepthCap) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  for (int i = 0; i < 40; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep, 16).ok());
  EXPECT_TRUE(ParseJson(deep, 64).ok());
}

TEST(ParseJson, DecodesEscapesAndSurrogatePairs) {
  auto v = ParseJson("\"\\u00e9\\uD83D\\uDE00\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value, "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonQuote, EscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string quoted = JsonQuote(nasty);
  EXPECT_TRUE(test::IsValidJson(quoted));
  auto v = ParseJson(quoted);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value, nasty);
}

// --- Request validation ------------------------------------------------

TEST(ParseRequest, MinimalAndFullQuery) {
  auto minimal = ParseRequest(R"({"op":"query","seed":3})");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->op, RequestOp::kQuery);
  EXPECT_EQ(minimal->seed, 3);
  EXPECT_EQ(minimal->topk, 10);
  EXPECT_EQ(minimal->deadline_ms, 0.0);
  EXPECT_FALSE(minimal->allow_partial);
  EXPECT_TRUE(minimal->id_json.empty());

  auto full = ParseRequest(
      R"({"op":"query","id":"a1","seed":3,"topk":5,"deadline_ms":50.5,)"
      R"("allow_partial":true,"scores":true})");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->id_json, "\"a1\"");
  EXPECT_EQ(full->topk, 5);
  EXPECT_DOUBLE_EQ(full->deadline_ms, 50.5);
  EXPECT_TRUE(full->allow_partial);
  EXPECT_TRUE(full->want_scores);
}

TEST(ParseRequest, IntegerIdReserialized) {
  auto r = ParseRequest(R"({"op":"health","id":42})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->op, RequestOp::kHealth);
  EXPECT_EQ(r->id_json, "42");
}

TEST(ParseRequest, SchemaViolationsAreInvalidArgument) {
  for (const char* bad : {
           R"({"op":"query"})",                        // missing seed
           R"({"op":"query","seed":1.5})",             // non-integral seed
           R"({"op":"query","seed":1,"topk":-1})",     // negative topk
           R"({"op":"query","seed":1,"deadline_ms":0})",   // non-positive
           R"({"op":"query","seed":1,"bogus":true})",  // unknown key
           R"({"op":"nope"})",                         // unknown op
           R"({"seed":1})",                            // missing op
           R"({"op":"health","seed":1})",              // key wrong for op
           R"({"op":"query","seed":1,"allow_partial":1})",  // wrong type
           R"({"op":"query","seed":1,"id":1.5})",      // non-integral id
       }) {
    auto r = ParseRequest(bad);
    ASSERT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseRequest, TopKModeFieldsParse) {
  auto exact = ParseRequest(R"({"op":"query","seed":3,"top_k":25})");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->top_k, 25);
  EXPECT_FALSE(exact->mode_eps);
  EXPECT_EQ(exact->eps, 0.0);

  auto explicit_exact =
      ParseRequest(R"({"op":"query","seed":3,"top_k":25,"mode":"exact"})");
  ASSERT_TRUE(explicit_exact.ok());
  EXPECT_FALSE(explicit_exact->mode_eps);

  auto eps = ParseRequest(
      R"({"op":"query","seed":3,"top_k":5,"mode":"eps","eps":1e-6})");
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(eps->top_k, 5);
  EXPECT_TRUE(eps->mode_eps);
  EXPECT_DOUBLE_EQ(eps->eps, 1e-6);

  // Plain queries are unaffected: top_k defaults to 0 (dense mode).
  auto dense = ParseRequest(R"({"op":"query","seed":3})");
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->top_k, 0);
}

TEST(ParseRequest, TopKModeRejectionsNameTheOffender) {
  // Every malformed top-k request is rejected with a message naming the
  // offending key, so clients can fix the exact field.
  const struct {
    const char* line;
    const char* named;
  } cases[] = {
      {R"({"op":"query","seed":3,"top_k":0})", "top_k"},
      {R"({"op":"query","seed":3,"top_k":1.5})", "top_k"},
      {R"({"op":"query","seed":3,"top_k":"five"})", "top_k"},
      {R"({"op":"query","seed":3,"top_k":5,"mode":"banana"})", "mode"},
      {R"({"op":"query","seed":3,"top_k":5,"mode":"eps"})", "eps"},
      {R"({"op":"query","seed":3,"top_k":5,"mode":"eps","eps":0})", "eps"},
      {R"({"op":"query","seed":3,"top_k":5,"mode":"eps","eps":-1})", "eps"},
      {R"({"op":"query","seed":3,"eps":0.001})", "eps"},
      {R"({"op":"query","seed":3,"mode":"exact"})", "mode"},
      {R"({"op":"query","seed":3,"top_k":5,"scores":true})", "top_k"},
      {R"({"op":"query","seed":3,"top_k":5,"topk":2})", "top_k"},
  };
  for (const auto& c : cases) {
    auto r = ParseRequest(c.line);
    ASSERT_FALSE(r.ok()) << "accepted: " << c.line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(r.status().message().find(c.named), std::string::npos)
        << c.line << " -> " << r.status().message();
  }
}

TEST(ParseRequest, SyntaxErrorsAreDataLoss) {
  for (const char* bad : {"", "garbage", "[1,2]", "\"str\"", "{{}}"}) {
    auto r = ParseRequest(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << bad;
  }
}

TEST(ParseRequest, ParseGarbageFaultSiteCorruptsTheLine) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kServerParseGarbage, 0, 1);
  auto r = ParseRequest(R"({"op":"health"})");  // valid, but injected
  EXPECT_FALSE(r.ok());
  // The next line passes untouched (count was 1).
  EXPECT_TRUE(ParseRequest(R"({"op":"health"})").ok());
  FaultInjector::Global().Reset();
}

TEST(ErrorResponseLine, ShapeAndRetryHint) {
  const std::string line =
      ErrorResponseLine("\"id7\"", protocol_errors::kOverloaded,
                        "queue full", 125.0);
  EXPECT_TRUE(test::IsValidJson(line));
  EXPECT_NE(line.find("\"id\":\"id7\""), std::string::npos);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_NE(line.find("\"retry_after_ms\":125"), std::string::npos);

  const std::string no_id =
      ErrorResponseLine("", protocol_errors::kParse, "bad \"quote\"");
  EXPECT_TRUE(test::IsValidJson(no_id));
  EXPECT_EQ(no_id.find("\"id\""), std::string::npos);
  EXPECT_EQ(no_id.find("retry_after_ms"), std::string::npos);
}

// --- Transports --------------------------------------------------------

TEST(StreamTransport, ReadsLinesAndSignalsEof) {
  std::istringstream in("one\ntwo\n");
  std::ostringstream out;
  StreamTransport t(in, out, 1024);
  std::string line;
  ASSERT_TRUE(t.ReadLine(&line).ok());
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(t.ReadLine(&line).ok());
  EXPECT_EQ(line, "two");
  auto eof = t.ReadLine(&line);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(*eof);
}

TEST(StreamTransport, OversizedLineIsBoundedAndRecoverable) {
  std::string input(1000, 'x');
  input += "\nok\n";
  std::istringstream in(input);
  std::ostringstream out;
  StreamTransport t(in, out, 16);
  std::string line;
  auto r = t.ReadLine(&line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // The connection is still usable afterwards.
  auto next = t.ReadLine(&line);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(line, "ok");
}

TEST(StreamTransport, EofMidLineIsIoError) {
  std::istringstream in("partial");
  std::ostringstream out;
  StreamTransport t(in, out, 1024);
  std::string line;
  auto r = t.ReadLine(&line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(StreamTransport, WriteLineAppendsNewline) {
  std::istringstream in;
  std::ostringstream out;
  StreamTransport t(in, out, 1024);
  ASSERT_TRUE(t.WriteLine("{}").ok());
  EXPECT_EQ(out.str(), "{}\n");
}

TEST(StreamTransport, ShortReadFaultSiteFires) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kServerShortRead, 0, 1);
  std::istringstream in("line\n");
  std::ostringstream out;
  StreamTransport t(in, out, 1024);
  std::string line;
  auto r = t.ReadLine(&line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  FaultInjector::Global().Reset();
}

TEST(StreamTransport, SlowClientFaultSiteFailsWrites) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kServerSlowClient, 0, 1);
  std::istringstream in;
  std::ostringstream out;
  StreamTransport t(in, out, 1024);
  EXPECT_FALSE(t.WriteLine("{}").ok());
  EXPECT_TRUE(t.WriteLine("{}").ok());
  FaultInjector::Global().Reset();
}

TEST(FdTransport, ReadsWritesOverAPipe) {
  int to_server[2], from_server[2];
  ASSERT_EQ(pipe(to_server), 0);
  ASSERT_EQ(pipe(from_server), 0);
  {
    FdTransport t(to_server[0], 1024, 100.0);
    const char* payload = "{\"op\":\"health\"}\nsecond\n";
    ASSERT_EQ(write(to_server[1], payload, std::strlen(payload)),
              static_cast<ssize_t>(std::strlen(payload)));
    std::string line;
    ASSERT_TRUE(t.ReadLine(&line).ok());
    EXPECT_EQ(line, "{\"op\":\"health\"}");
    ASSERT_TRUE(t.ReadLine(&line).ok());
    EXPECT_EQ(line, "second");
    close(to_server[1]);
    auto eof = t.ReadLine(&line);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(*eof);
  }
  {
    FdTransport t(from_server[1], 1024, 100.0);
    ASSERT_TRUE(t.WriteLine("reply").ok());
    char buf[16] = {};
    ASSERT_EQ(read(from_server[0], buf, sizeof buf), 6);
    EXPECT_EQ(std::string(buf), "reply\n");
  }
  close(from_server[0]);
}

TEST(FdTransport, WakeFdCancelsABlockedRead) {
  int data[2], wake[2];
  ASSERT_EQ(pipe(data), 0);
  ASSERT_EQ(pipe(wake), 0);
  FdTransport t(data[0], 1024, 100.0, wake[0]);
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const char b = 1;
    ASSERT_EQ(write(wake[1], &b, 1), 1);
  });
  std::string line;
  auto r = t.ReadLine(&line);
  waker.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  close(data[1]);
  close(wake[0]);
  close(wake[1]);
}

TEST(FdTransport, WriteToDeadSocketPeerIsIoErrorNotSigpipe) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdTransport t(fds[0], 1024, 100.0);
  close(fds[1]);  // peer gone before reading anything
  // Without MSG_NOSIGNAL this write would raise SIGPIPE and kill the
  // process (no handler is installed in this test binary).
  Status first = t.WriteLine("reply");
  // The first write may land in the kernel buffer of a freshly closed
  // socket; a follow-up write must observe EPIPE as a plain IoError.
  Status second = t.WriteLine("reply");
  EXPECT_FALSE(first.ok() && second.ok());
  EXPECT_FALSE(second.ok());
}

TEST(FdTransport, OversizedLineIsRejectedInBoundedMemory) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  FdTransport t(fds[0], 8, 100.0);
  const std::string big(64, 'y');
  ASSERT_EQ(write(fds[1], (big + "\nok\n").c_str(), big.size() + 4),
            static_cast<ssize_t>(big.size() + 4));
  std::string line;
  auto r = t.ReadLine(&line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  auto next = t.ReadLine(&line);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(line, "ok");
  close(fds[1]);
}

// --- Admission control -------------------------------------------------

TEST(Admission, FifoSubmitAndNext) {
  AdmissionOptions options;
  options.max_queue = 4;
  AdmissionController ac(options);
  std::vector<int> ran;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ac.Submit([&ran, i](int) { ran.push_back(i); }, nullptr).ok());
  }
  EXPECT_EQ(ac.depth(), 3u);
  AdmissionJob job;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ac.Next(&job));
    job(0);
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(Admission, BoundedQueueRejectsWithRetryHint) {
  AdmissionOptions options;
  options.max_queue = 2;
  options.slots = 1;
  AdmissionController ac(options);
  ASSERT_TRUE(ac.Submit([](int) {}, nullptr).ok());
  ASSERT_TRUE(ac.Submit([](int) {}, nullptr).ok());
  double retry = -1.0;
  const Status rejected = ac.Submit([](int) {}, &retry);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(retry, 1.0);
  EXPECT_LE(retry, 60000.0);
}

TEST(Admission, RetryHintScalesWithServiceTime) {
  AdmissionOptions options;
  options.max_queue = 1;
  options.slots = 1;
  AdmissionController ac(options);
  for (int i = 0; i < 16; ++i) ac.RecordServiceSeconds(0.2);
  ASSERT_TRUE(ac.Submit([](int) {}, nullptr).ok());
  double retry = -1.0;
  ASSERT_FALSE(ac.Submit([](int) {}, &retry).ok());
  // ~2 requests ahead at ~200 ms each.
  EXPECT_GE(retry, 200.0);
}

TEST(Admission, DrainLatchStopsAdmissionAndReleasesWorkers) {
  AdmissionController ac(AdmissionOptions{});
  ASSERT_TRUE(ac.Submit([](int) {}, nullptr).ok());
  ac.BeginDrain();
  EXPECT_TRUE(ac.draining());
  const Status rejected = ac.Submit([](int) {}, nullptr);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  // The queued job still drains, then Next unblocks with false.
  AdmissionJob job;
  ASSERT_TRUE(ac.Next(&job));
  EXPECT_FALSE(ac.Next(&job));
}

TEST(Admission, BlockedWorkerWakesOnDrain) {
  AdmissionController ac(AdmissionOptions{});
  std::thread worker([&ac] {
    AdmissionJob job;
    EXPECT_FALSE(ac.Next(&job));  // blocks until drain
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ac.BeginDrain();
  worker.join();
}

TEST(Admission, JobsStayInServiceUntilFinished) {
  AdmissionController ac(AdmissionOptions{});
  EXPECT_TRUE(ac.idle());
  ASSERT_TRUE(ac.Submit([](int) {}, nullptr).ok());
  EXPECT_FALSE(ac.idle());
  std::vector<AdmissionJob> jobs;
  std::thread worker([&ac, &jobs] {
    // Takes the job, then waits in the batch window for more.
    EXPECT_TRUE(ac.NextBatch(&jobs, 8, 10000.0));
  });
  while (ac.depth() != 0) std::this_thread::yield();
  // The queue is empty but the popped job is still forming a batch.
  EXPECT_EQ(ac.in_service(), 1u);
  EXPECT_FALSE(ac.idle());
  ac.BeginDrain();  // ends the window early
  worker.join();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_FALSE(ac.idle());
  ac.Finish(jobs.size());
  EXPECT_TRUE(ac.idle());
}

// --- QueryServer end-to-end --------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(test::SmallRmat(200, 1200, 0.2, 1009));
    BepiOptions options;
    options.mode = BepiMode::kPreconditioned;
    solver_ = new BepiSolver(options);
    ASSERT_TRUE(solver_->Preprocess(*graph_).ok());
  }
  static void TearDownTestSuite() {
    delete solver_;
    delete graph_;
    solver_ = nullptr;
    graph_ = nullptr;
  }

  /// Runs one stdin/stdout-style session over the given request lines and
  /// returns the response lines.
  std::vector<std::string> Serve(const std::vector<std::string>& requests,
                                 ServeOptions options = {}) {
    std::string input;
    for (const std::string& r : requests) input += r + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    QueryServer server(*solver_, options);
    EXPECT_TRUE(server.ServeStream(in, out).ok());
    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
    return lines;
  }

  static bool Contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
    for (const std::string& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  static Graph* graph_;
  static BepiSolver* solver_;
};

Graph* ServerTest::graph_ = nullptr;
BepiSolver* ServerTest::solver_ = nullptr;

TEST_F(ServerTest, AnswersQueriesWithValidJson) {
  auto lines = Serve({R"({"op":"query","id":"q1","seed":5,"topk":3})",
                      R"({"op":"query","id":2,"seed":9})"});
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(test::IsValidJson(l)) << l;
    EXPECT_NE(l.find("\"ok\":true"), std::string::npos) << l;
    EXPECT_NE(l.find("\"outcome\":\"Converged\""), std::string::npos) << l;
  }
  EXPECT_TRUE(Contains(lines, "\"id\":\"q1\""));
  EXPECT_TRUE(Contains(lines, "\"id\":2"));
}

TEST_F(ServerTest, ScoresMatchDirectQueryBitForBit) {
  auto lines = Serve({R"({"op":"query","seed":7,"scores":true})"});
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = ParseJson(lines[0], 16);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  const auto& scores = parsed->object_value.at("scores").array_value;
  auto direct = solver_->Query(7);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(scores.size(), direct->size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    // %.17g round-trips exactly: the parsed double must be bit-identical.
    EXPECT_EQ(scores[i].number_value, static_cast<double>((*direct)[i]))
        << "component " << i;
  }
}

TEST_F(ServerTest, GarbageNeverKillsTheSession) {
  auto lines = Serve({
      "garbage{{{",
      std::string("\x01\x02" "bad", 5),
      R"({"op":"query","seed":1.5})",
      R"({"op":"unknown"})",
      R"({"op":"query","seed":99999})",
      R"({"op":"query","id":"ok","seed":3})",
  });
  ASSERT_EQ(lines.size(), 6u);
  for (const std::string& l : lines) EXPECT_TRUE(test::IsValidJson(l)) << l;
  EXPECT_TRUE(Contains(lines, "\"error\":\"parse_error\""));
  EXPECT_TRUE(Contains(lines, "\"error\":\"invalid_argument\""));
  EXPECT_TRUE(Contains(lines, "out of range"));
  // The session survived everything and answered the real query.
  EXPECT_TRUE(Contains(lines, "\"id\":\"ok\",\"ok\":true"));
}

// Replays the checked-in regression corpus (tests/data/protocol_corpus):
// every line is a historically-nasty input — garbage bytes, numeric
// overflow, lone UTF-16 surrogates, duplicate keys, depth bombs, an
// overlong line. Each must draw a valid-JSON error response, and the
// session must stay healthy enough to answer a real query afterwards.
// New parser regressions get appended to the corpus, not inlined here.
TEST_F(ServerTest, ProtocolCorpusReplayNeverKillsTheSession) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(BEPI_TEST_DATA_DIR) / "protocol_corpus";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty corpus dir: " << dir;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    std::vector<std::string> requests;
    std::string line;
    while (std::getline(in, line)) requests.push_back(line);
    ASSERT_FALSE(requests.empty()) << file;
    const std::size_t corpus_lines = requests.size();
    requests.push_back(R"({"op":"query","id":"corpus-tail","seed":3})");
    ServeOptions options;
    options.max_line_bytes = 4096;  // the corpus overlong line exceeds this
    auto lines = Serve(requests, options);
    ASSERT_EQ(lines.size(), requests.size()) << file;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_TRUE(test::IsValidJson(lines[i]))
          << file << " line " << (i + 1) << ": " << lines[i];
    }
    for (std::size_t i = 0; i < corpus_lines; ++i) {
      EXPECT_NE(lines[i].find("\"error\":"), std::string::npos)
          << file << " line " << (i + 1) << " was accepted: " << lines[i];
    }
    EXPECT_NE(lines.back().find("\"id\":\"corpus-tail\",\"ok\":true"),
              std::string::npos)
        << file << ": session did not survive the corpus";
  }
}

TEST_F(ServerTest, OverlongLineGetsBoundedErrorResponse) {
  ServeOptions options;
  options.max_line_bytes = 64;
  auto lines = Serve({std::string(500, 'x'),
                      R"({"op":"query","id":"after","seed":2})"},
                     options);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(Contains(lines, "\"error\":\"parse_error\""));
  EXPECT_TRUE(Contains(lines, "\"id\":\"after\",\"ok\":true"));
}

TEST_F(ServerTest, ExpiredDeadlineProducesDeadlineExceeded) {
  auto lines =
      Serve({R"({"op":"query","id":"d","seed":5,"deadline_ms":0.000001})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(test::IsValidJson(lines[0]));
  EXPECT_NE(lines[0].find("\"error\":\"deadline_exceeded\""),
            std::string::npos)
      << lines[0];
}

TEST_F(ServerTest, AllowPartialReturnsBestSoFarWithErrorBound) {
  auto lines = Serve({R"({"op":"query","id":"p","seed":5,)"
                      R"("deadline_ms":0.000001,"allow_partial":true})"});
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = ParseJson(lines[0], 16);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  EXPECT_TRUE(parsed->object_value.at("ok").bool_value);
  EXPECT_TRUE(parsed->object_value.at("partial").bool_value);
  EXPECT_EQ(parsed->object_value.at("outcome").string_value, "Cancelled");
  EXPECT_GT(parsed->object_value.at("residual").number_value, 0.0);
}

TEST_F(ServerTest, HealthAndStatsAnswerInline) {
  auto lines = Serve({R"({"op":"health","id":"h"})", R"({"op":"stats"})",
                      R"({"op":"query","seed":1})"});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(Contains(lines, "\"health\":\"serving\""));
  EXPECT_TRUE(Contains(lines, "\"accepted\":"));
  EXPECT_TRUE(Contains(lines, "\"latency_ms\":"));
}

TEST_F(ServerTest, StatsCountersAddUp) {
  ServeOptions options;
  options.slots = 1;
  QueryServer server(*solver_, options);
  std::istringstream in(
      "{\"op\":\"query\",\"seed\":1}\n"
      "garbage\n"
      "{\"op\":\"query\",\"seed\":2}\n");
  std::ostringstream out;
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.health, "draining");  // post-drain state
}

TEST_F(ServerTest, InjectedParseGarbageProducesErrorNotDeath) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kServerParseGarbage, 0, 1);
  auto lines = Serve({R"({"op":"query","id":"x","seed":3})",
                      R"({"op":"query","id":"y","seed":3})"});
  FaultInjector::Global().Reset();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(Contains(lines, "\"error\":\"parse_error\""));
  EXPECT_TRUE(Contains(lines, "\"id\":\"y\",\"ok\":true"));
}

TEST_F(ServerTest, ServesConcurrentSocketClients) {
  const std::string path =
      "/tmp/bepi_test_" + std::to_string(getpid()) + ".sock";
  ServeOptions options;
  options.slots = 2;
  QueryServer server(*solver_, options);
  std::thread serving([&] {
    EXPECT_TRUE(server.ServeUnixSocket(path).ok());
  });
  // Wait for the socket to appear.
  for (int i = 0; i < 200; ++i) {
    if (access(path.c_str(), F_OK) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  auto client = [&path](index_t seed, std::string* response) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    const std::string req = "{\"op\":\"query\",\"seed\":" +
                            std::to_string(seed) + ",\"topk\":2}\n";
    ASSERT_EQ(write(fd, req.c_str(), req.size()),
              static_cast<ssize_t>(req.size()));
    char buf[4096];
    std::string got;
    while (got.find('\n') == std::string::npos) {
      const ssize_t n = read(fd, buf, sizeof buf);
      ASSERT_GT(n, 0);
      got.append(buf, static_cast<std::size_t>(n));
    }
    *response = got.substr(0, got.find('\n'));
    close(fd);
  };

  std::string r1, r2;
  std::thread c1(client, 3, &r1);
  std::thread c2(client, 4, &r2);
  c1.join();
  c2.join();
  server.RequestDrain();
  serving.join();
  EXPECT_TRUE(test::IsValidJson(r1)) << r1;
  EXPECT_TRUE(test::IsValidJson(r2)) << r2;
  EXPECT_NE(r1.find("\"seed\":3"), std::string::npos);
  EXPECT_NE(r2.find("\"seed\":4"), std::string::npos);
  unlink(path.c_str());
}

namespace {

/// Connects to the Unix-domain socket at `path`, or returns -1.
int ConnectUnix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads from `fd` until one full line (or EOF) arrives.
std::string ReadOneLine(int fd) {
  std::string got;
  char buf[4096];
  while (got.find('\n') == std::string::npos) {
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  const auto nl = got.find('\n');
  return nl == std::string::npos ? got : got.substr(0, nl);
}

void WaitForSocket(const std::string& path) {
  for (int i = 0; i < 200; ++i) {
    if (access(path.c_str(), F_OK) == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

TEST_F(ServerTest, ClientVanishingBeforeItsResponseDoesNotKillTheServer) {
  const std::string path =
      "/tmp/bepi_test_gone_" + std::to_string(getpid()) + ".sock";
  QueryServer server(*solver_, ServeOptions{});
  std::thread serving([&] { EXPECT_TRUE(server.ServeUnixSocket(path).ok()); });
  WaitForSocket(path);

  // Send a query and slam the connection shut without reading the
  // response: the worker's write must surface as a dropped connection,
  // never a SIGPIPE death.
  const int rude = ConnectUnix(path);
  ASSERT_GE(rude, 0);
  const char* req = "{\"op\":\"query\",\"seed\":3}\n";
  ASSERT_EQ(write(rude, req, std::strlen(req)),
            static_cast<ssize_t>(std::strlen(req)));
  close(rude);

  // The server is still alive and serving later clients.
  std::string answer;
  for (int i = 0; i < 200 && answer.find("\"ok\":true") == std::string::npos;
       ++i) {
    const int polite = ConnectUnix(path);
    ASSERT_GE(polite, 0);
    const char* probe = "{\"op\":\"query\",\"seed\":4}\n";
    ASSERT_EQ(write(polite, probe, std::strlen(probe)),
              static_cast<ssize_t>(std::strlen(probe)));
    answer = ReadOneLine(polite);
    close(polite);
  }
  EXPECT_NE(answer.find("\"ok\":true"), std::string::npos) << answer;
  server.RequestDrain();
  serving.join();
  unlink(path.c_str());
}

TEST_F(ServerTest, ConnectionCapShedsWithOverloadedLine) {
  const std::string path =
      "/tmp/bepi_test_cap_" + std::to_string(getpid()) + ".sock";
  ServeOptions options;
  options.max_conns = 1;
  QueryServer server(*solver_, options);
  std::thread serving([&] { EXPECT_TRUE(server.ServeUnixSocket(path).ok()); });
  WaitForSocket(path);

  // First connection occupies the single slot; a round-trip guarantees
  // its reader thread is registered before the second connect.
  const int held = ConnectUnix(path);
  ASSERT_GE(held, 0);
  const char* probe = "{\"op\":\"health\"}\n";
  ASSERT_EQ(write(held, probe, std::strlen(probe)),
            static_cast<ssize_t>(std::strlen(probe)));
  EXPECT_NE(ReadOneLine(held).find("\"ok\":true"), std::string::npos);

  const int shed = ConnectUnix(path);
  ASSERT_GE(shed, 0);
  const std::string line = ReadOneLine(shed);
  EXPECT_TRUE(test::IsValidJson(line)) << line;
  EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos) << line;
  EXPECT_NE(line.find("retry_after_ms"), std::string::npos) << line;
  // The cap rejection also closes the connection (EOF after the line).
  char c;
  EXPECT_EQ(read(shed, &c, 1), 0);
  close(shed);

  // Closing the held connection frees the slot for a fresh client. Until
  // the server notices, a retry is shed and closed, so the probe write may
  // hit a closed socket: MSG_NOSIGNAL turns that into EPIPE, not SIGPIPE.
  close(held);
  std::string answer;
  for (int i = 0; i < 200 && answer.find("\"ok\":true") == std::string::npos;
       ++i) {
    const int next = ConnectUnix(path);
    ASSERT_GE(next, 0);
    if (send(next, probe, std::strlen(probe), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(std::strlen(probe))) {
      answer = ReadOneLine(next);
    }
    close(next);
  }
  EXPECT_NE(answer.find("\"ok\":true"), std::string::npos) << answer;
  EXPECT_GE(server.Stats().rejected_conns, 1u);
  server.RequestDrain();
  serving.join();
  unlink(path.c_str());
}

TEST_F(ServerTest, OverloadShedsWithRetryAfterHint) {
  // One slot and a one-deep queue: the reader enqueues far faster than
  // ~ms-long solves complete, so a burst must shed load.
  ServeOptions options;
  options.slots = 1;
  options.max_queue = 1;
  std::vector<std::string> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back("{\"op\":\"query\",\"seed\":" + std::to_string(i % 50) +
                    "}");
  }
  auto lines = Serve(burst, options);
  ASSERT_EQ(lines.size(), burst.size());
  bool saw_overload = false;
  for (const std::string& l : lines) {
    EXPECT_TRUE(test::IsValidJson(l)) << l;
    if (l.find("\"error\":\"overloaded\"") != std::string::npos) {
      saw_overload = true;
      EXPECT_NE(l.find("\"retry_after_ms\":"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(saw_overload);
}

// --- observability -----------------------------------------------------

TEST_F(ServerTest, RequestIdIsEchoedWhenSupplied) {
  auto lines =
      Serve({R"({"op":"query","id":"q","request_id":"trace-42","seed":3})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"request_id\":\"trace-42\""), std::string::npos)
      << lines[0];
}

TEST_F(ServerTest, RequestIdIsMintedWhenAbsent) {
  auto lines = Serve({R"({"op":"query","seed":3})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"request_id\":\"srv-"), std::string::npos)
      << lines[0];
}

TEST_F(ServerTest, RequestIdEchoedOnErrorsToo) {
  auto lines = Serve(
      {R"({"op":"query","request_id":"bad-seed","seed":99999})",
       R"({"op":"query","request_id":"dead","seed":3,"deadline_ms":1e-6})"});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(Contains(lines, "\"request_id\":\"bad-seed\""));
  EXPECT_TRUE(Contains(lines, "\"request_id\":\"dead\""));
}

TEST_F(ServerTest, MalformedRequestIdIsRejected) {
  auto lines = Serve({R"({"op":"query","request_id":"no spaces!","seed":3})",
                      std::string(R"({"op":"query","request_id":")") +
                          std::string(65, 'x') + R"(","seed":3})"});
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("\"error\":\"invalid_argument\""), std::string::npos)
        << l;
  }
}

TEST_F(ServerTest, ResponseCarriesTimingBreakdown) {
  auto lines = Serve({R"({"op":"query","seed":5})"});
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = ParseJson(lines[0], 16);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  const auto& timing = parsed->object_value.at("timing");
  ASSERT_EQ(timing.type, JsonValue::Type::kObject);
  EXPECT_GE(timing.object_value.at("queue_ns").number_value, 0.0);
  EXPECT_GT(timing.object_value.at("solve_ns").number_value, 0.0);
  EXPECT_GE(timing.object_value.at("total_ns").number_value,
            timing.object_value.at("solve_ns").number_value);
  const auto& stages = timing.object_value.at("stages").array_value;
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages[0].object_value.at("stage").string_value, "ilu0+gmres");
  EXPECT_EQ(stages[0].object_value.at("outcome").string_value, "Converged");
  EXPECT_GE(stages[0].object_value.at("ns").number_value, 0.0);
  EXPECT_GT(stages[0].object_value.at("iterations").number_value, 0.0);
}

TEST_F(ServerTest, MetricsVerbAnswersPrometheusInline) {
  auto lines = Serve({R"({"op":"query","seed":2})",
                      R"({"op":"metrics","id":"m"})"});
  ASSERT_EQ(lines.size(), 2u);
  // The metrics verb is answered inline on the reader thread while the
  // query runs in a worker, so the scrape can land first.
  const std::string& scrape =
      lines[0].find("\"metrics\":") != std::string::npos ? lines[0]
                                                         : lines[1];
  auto parsed = ParseJson(scrape, 16);
  ASSERT_TRUE(parsed.ok()) << scrape;
  EXPECT_TRUE(parsed->object_value.at("ok").bool_value);
  const std::string& text =
      parsed->object_value.at("metrics").string_value;
  EXPECT_NE(text.find("# TYPE bepi_server_latency_seconds histogram"),
            std::string::npos);
  // Eager registration in the server constructor makes the key set
  // deterministic, scrape-time code paths notwithstanding.
  for (const char* name :
       {"bepi_server_accepted", "bepi_server_completed",
        "bepi_server_watchdog_trips", "bepi_server_slow_queries",
        "bepi_process_rss_bytes"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST_F(ServerTest, MetricsVerbExportsModelLoadSeconds) {
  const std::string path = testing::TempDir() + "/server_load_seconds.model";
  ASSERT_TRUE(solver_->SaveFile(path).ok());
  auto loaded = BepiSolver::LoadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::istringstream in(R"({"op":"metrics","id":"m"})"
                        "\n");
  std::ostringstream out;
  {
    QueryServer server(*loaded, ServeOptions{});
    ASSERT_TRUE(server.ServeStream(in, out).ok());
  }
  auto parsed = ParseJson(out.str().substr(0, out.str().find('\n')), 16);
  ASSERT_TRUE(parsed.ok()) << out.str();
  const std::string& text = parsed->object_value.at("metrics").string_value;
  const std::string series = "\nbepi_model_load_seconds ";
  const std::size_t at = text.find(series);
  ASSERT_NE(at, std::string::npos) << text;
  const double seconds = std::strtod(text.c_str() + at + series.size(),
                                     nullptr);
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(seconds, 60.0);
}

TEST_F(ServerTest, DumpVerbReturnsFlightRecorderTrace) {
  FlightRecorder::ResetForTest();
  // Two sessions: the first completes a traced query (ServeStream drains
  // before returning, so its hops are in the rings); the second dumps.
  Serve({R"({"op":"query","request_id":"dumpme","seed":4})"});
  auto lines = Serve({R"({"op":"dump","id":"d"})"});
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = ParseJson(lines[0], 32);
  ASSERT_TRUE(parsed.ok()) << lines[0];
  EXPECT_TRUE(parsed->object_value.at("ok").bool_value);
  const auto& trace = parsed->object_value.at("flightrec");
  ASSERT_EQ(trace.type, JsonValue::Type::kObject);
  const auto& events = trace.object_value.at("traceEvents").array_value;
  bool saw_admit = false, saw_hop = false, saw_complete = false;
  for (const JsonValue& e : events) {
    const auto& args = e.object_value.at("args").object_value;
    if (args.at("request_id").string_value != "dumpme") continue;
    const std::string& name = e.object_value.at("name").string_value;
    if (name == "admit") saw_admit = true;
    if (name == "stage_hop") saw_hop = true;
    if (name == "complete") saw_complete = true;
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_hop);
  EXPECT_TRUE(saw_complete);
}

// The acceptance scenario: with every linear-algebra stage fault-injected,
// one request degrades ilu0+gmres -> jacobi+gmres -> bicgstab -> power ->
// mc. The response's timing must name all five stages with per-stage
// wall-clock, the flight recorder must hold the same hop sequence under
// the request_id, and the slow-query log machinery must attribute it.
TEST_F(ServerTest, FullDegradationChainIsObservableEndToEnd) {
  FlightRecorder::ResetForTest();
  BepiOptions options;
  options.mode = BepiMode::kPreconditioned;
  BepiSolver solver(options);
  ASSERT_TRUE(solver.Preprocess(*graph_).ok());
  McWalkEngine engine(*graph_);
  ASSERT_TRUE(solver.AttachMcFallback(&engine, {}).ok());

  FaultInjector::Global().Reset();
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("gmres.stagnate,bicgstab.breakdown,power.stall")
                  .ok());
  ServeOptions serve_options;
  serve_options.slots = 1;
  serve_options.slow_ms = 1e-6;  // everything is an offender
  serve_options.flight_dump_path.clear();
  QueryServer server(solver, serve_options);
  std::istringstream in(
      "{\"op\":\"query\",\"request_id\":\"chain-1\",\"seed\":6}\n");
  std::ostringstream out;
  ASSERT_TRUE(server.ServeStream(in, out).ok());
  FaultInjector::Global().Reset();

  std::string line = out.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  auto parsed = ParseJson(line, 16);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->object_value.at("request_id").string_value, "chain-1");
  EXPECT_EQ(parsed->object_value.at("stage").string_value, "mc");
  const auto& stages =
      parsed->object_value.at("timing").object_value.at("stages").array_value;
  const std::vector<std::string> expected = {
      "ilu0+gmres", "jacobi+gmres", "bicgstab", "power", "mc"};
  ASSERT_EQ(stages.size(), expected.size()) << line;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(stages[i].object_value.at("stage").string_value, expected[i]);
    EXPECT_GE(stages[i].object_value.at("ns").number_value, 0.0);
  }

  // The flight recorder reconstructs the same hop sequence by request_id.
  std::vector<std::string> hops;
  for (const FlightEvent& e : FlightRecorder::Snapshot()) {
    if (e.type == FlightEventType::kStageHop && e.request_id == "chain-1") {
      hops.push_back(e.detail);
    }
  }
  EXPECT_EQ(hops, expected);

  // And the slow-query log counted the offender (the structured line went
  // to the warning log; the counter and exemplar are its observable side).
  EXPECT_GE(server.Stats().slow_queries, 1u);
  const HistogramExemplar exemplar =
      MetricsRegistry::Global()
          .GetHistogram("server.latency_seconds")
          ->exemplar();
  ASSERT_TRUE(exemplar.valid);
  EXPECT_EQ(exemplar.label, "chain-1");
}

// Holds one request's bytes, then blocks further reads until released —
// keeps the serve session open (no EOF, no drain) so the watchdog can
// patrol while the worker is wedged.
class GatedStreamBuf : public std::streambuf {
 public:
  explicit GatedStreamBuf(std::string first) : first_(std::move(first)) {
    setg(first_.data(), first_.data(), first_.data() + first_.size());
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    return traits_type::eof();
  }

 private:
  std::string first_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST_F(ServerTest, WatchdogTripAutoDumpsFlightRecorder) {
  FlightRecorder::ResetForTest();
  FaultInjector::Global().Reset();
  // One stalled request: the worker naps until the watchdog cancels it.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("server.exec_stall:0:1").ok());
  const std::string dump_path =
      ::testing::TempDir() + "/bepi_watchdog_dump_test.json";
  std::remove(dump_path.c_str());
  ServeOptions options;
  options.slots = 1;
  options.watchdog_ms = 10.0;
  options.wedge_ms = 50.0;
  options.flight_dump_path = dump_path;
  QueryServer server(*solver_, options);
  GatedStreamBuf gate(
      "{\"op\":\"query\",\"request_id\":\"wedge-1\",\"seed\":1}\n");
  std::istream in(&gate);
  std::ostringstream out;
  std::thread session([&] { ASSERT_TRUE(server.ServeStream(in, out).ok()); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().watchdog_trips == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gate.Release();
  session.join();
  FaultInjector::Global().Reset();
  EXPECT_GE(server.Stats().watchdog_trips, 1u);
  // The stalled request was cancelled and answered honestly.
  EXPECT_NE(out.str().find("\"request_id\":\"wedge-1\""), std::string::npos)
      << out.str();
  // The trip auto-dumped a Perfetto trace naming the wedged request.
  std::ifstream dumped(dump_path);
  ASSERT_TRUE(dumped.good()) << dump_path;
  std::stringstream content;
  content << dumped.rdbuf();
  EXPECT_TRUE(test::IsValidJson(content.str()));
  EXPECT_NE(content.str().find("watchdog"), std::string::npos);
  EXPECT_NE(content.str().find("wedge-1"), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST_F(ServerTest, StatsLineIncludesSlowQueries) {
  auto lines = Serve({R"({"op":"stats"})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"slow_queries\":"), std::string::npos)
      << lines[0];
}

}  // namespace
}  // namespace bepi
