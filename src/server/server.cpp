#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/faultinject.hpp"
#include "common/flightrec.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/promtext.hpp"
#include "common/shutdown.hpp"
#include "solver/outcome.hpp"

namespace bepi {

namespace {

using Clock = CancelToken::Clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t ToEpochNs(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

void AppendReal(std::string* out, real_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
  *out += buf;
}

std::int64_t ToNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// The response's "timing" object: where this request's wall time went
/// (queue wait, solve, total) plus one entry per degradation-chain hop
/// with its own wall time, outcome and iteration count.
void AppendTimingJson(std::string* out, std::int64_t queue_ns,
                      std::int64_t solve_ns, std::int64_t total_ns,
                      const QueryReport& report) {
  *out += "\"timing\":{\"queue_ns\":" + std::to_string(queue_ns);
  *out += ",\"solve_ns\":" + std::to_string(solve_ns);
  *out += ",\"total_ns\":" + std::to_string(total_ns);
  *out += ",\"stages\":[";
  for (std::size_t i = 0; i < report.attempts.size(); ++i) {
    const SolveAttempt& a = report.attempts[i];
    if (i > 0) *out += ",";
    *out += "{\"stage\":" + JsonQuote(a.stage);
    *out += ",\"ns\":" + std::to_string(ToNs(a.seconds));
    *out += ",\"outcome\":" + JsonQuote(SolveOutcomeName(a.outcome));
    *out += ",\"iterations\":" + std::to_string(a.iterations);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace

/// One client session: the transport plus the write-side serialization
/// (reader thread and several workers interleave responses on it) and a
/// dead latch so a failed write poisons the connection exactly once.
struct QueryServer::Conn {
  LineTransport* transport = nullptr;
  std::unique_ptr<LineTransport> owned;  // socket mode owns its transport
  std::mutex write_mu;
  std::atomic<bool> dead{false};
};

/// Per-worker execution state sampled by the watchdog. The tokens are
/// held via shared_ptr under a mutex so a watchdog cancel can never race
/// the worker releasing the request; a coalesced batch parks every
/// member's token here so a wedged blocked solve cancels them all.
struct QueryServer::WorkerSlot {
  /// One accepted query parked here between admission and the coalesced
  /// solve (CollectPending -> ExecuteBatch).
  struct PendingQuery {
    std::shared_ptr<Conn> conn;
    Request req;
    std::shared_ptr<CancelToken> token;
    Clock::time_point admitted_at;
  };

  GmresWorkspace workspace;
  std::vector<PendingQuery> pending;  // worker-thread-only scratch
  std::mutex mu;
  std::vector<std::shared_ptr<CancelToken>> active_tokens;  // guarded by mu
  std::string active_request_id;                            // guarded by mu
  std::atomic<std::int64_t> busy_since_ns{0};               // 0 = idle
  std::atomic<bool> wedged{false};
};

QueryServer::QueryServer(const BepiSolver& solver, ServeOptions options)
    : solver_(solver),
      options_(options),
      admission_([&] {
        AdmissionOptions a;
        a.max_queue = static_cast<std::size_t>(
            std::max<index_t>(1, options.max_queue));
        a.slots = std::max(1, options.slots);
        return a;
      }()),
      cache_(static_cast<std::uint64_t>(std::max(0, options.cache_mb)) << 20),
      fingerprint_(ModelFingerprint(solver)) {
  options_.slots = std::max(1, options_.slots);
  workers_.reserve(static_cast<std::size_t>(options_.slots));
  for (int i = 0; i < options_.slots; ++i) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
  if (pipe(wake_pipe_) == 0) {
    for (int fd : wake_pipe_) {
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      fcntl(fd, F_SETFD, fcntl(fd, F_GETFD) | FD_CLOEXEC);
    }
  } else {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  // Register every server metric up front so the snapshot's key set is
  // deterministic (the docs glossary cross-check diffs it against the
  // OPERATIONS.md table) rather than depending on which paths ran.
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const char* name :
       {"server.accepted", "server.completed", "server.rejected_invalid",
        "server.rejected_conns", "server.deadline_exceeded",
        "server.cancelled", "server.watchdog_trips", "server.slow_queries"}) {
    registry.GetCounter(name);
  }
  registry.GetGauge("server.inflight");
  // Set by BepiSolver::LoadFile when the model was loaded at startup.
  registry.GetGauge("model.load_seconds");
  registry.GetHistogram("server.latency_seconds");
  registry.GetHistogram("server.batch_width");
}

QueryServer::~QueryServer() {
  Drain();
  for (int fd : wake_pipe_) {
    if (fd >= 0) close(fd);
  }
}

void QueryServer::RequestDrain() {
  admission_.BeginDrain();
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &b, 1);
  }
  drain_cv_.notify_all();
}

// --- worker pool -------------------------------------------------------

void QueryServer::StartWorkers() {
  if (workers_started_) return;
  workers_started_ = true;
  // The flight recorder is always on while serving: its record path is a
  // handful of relaxed atomic stores into per-thread rings, cheap enough
  // to leave running so the buffer already holds the story when an
  // incident (watchdog trip, fatal signal) asks for a dump.
  FlightRecorder::SetEnabled(true);
  worker_threads_.reserve(workers_.size());
  for (int i = 0; i < static_cast<int>(workers_.size()); ++i) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
}

void QueryServer::WorkerLoop(int slot) {
  // The coalescing scheduler: pull up to batch_max accepted queries in
  // one pop (waiting batch_window_ms for stragglers when configured),
  // park them on this slot, then answer the whole batch — cache hits
  // immediately, the rest through one coalesced Schur solve.
  std::vector<AdmissionJob> jobs;
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, options_.batch_max));
  while (admission_.NextBatch(&jobs, max_batch, options_.batch_window_ms)) {
    BEPI_METRIC_GAUGE(inflight_gauge, "server.inflight");
    inflight_gauge->Set(static_cast<double>(admission_.in_service()));
    workers_[slot]->pending.clear();
    for (AdmissionJob& job : jobs) job(slot);
    ExecuteBatch(slot);
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      admission_.Finish(jobs.size());
    }
    inflight_gauge->Set(static_cast<double>(admission_.in_service()));
    drain_cv_.notify_all();
  }
}

void QueryServer::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  while (!drained_.load(std::memory_order_relaxed)) {
    drain_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                                 std::max(1.0, options_.watchdog_ms)));
    if (drained_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    const std::int64_t now = NowNs();
    const std::int64_t wedge_ns =
        static_cast<std::int64_t>(options_.wedge_ms * 1e6);
    bool any_wedged = false;
    for (auto& slot : workers_) {
      const std::int64_t busy_since =
          slot->busy_since_ns.load(std::memory_order_relaxed);
      if (busy_since != 0 && now - busy_since > wedge_ns) {
        std::lock_guard<std::mutex> slot_lock(slot->mu);
        // Re-check under the slot lock: the worker may have finished the
        // wedged job and started a fresh request between the sample above
        // and here — cancelling *that* token would kill an innocent query.
        if (slot->busy_since_ns.load(std::memory_order_relaxed) !=
            busy_since) {
          continue;
        }
        any_wedged = true;
        if (!slot->wedged.exchange(true, std::memory_order_relaxed)) {
          watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
          BEPI_METRIC_COUNTER(trips, "server.watchdog_trips");
          trips->Increment();
          BEPI_LOG(Warning) << "watchdog: worker busy for "
                            << static_cast<double>(now - busy_since) / 1e6
                            << " ms, cancelling its request(s) (request_id="
                            << slot->active_request_id << ", "
                            << slot->active_tokens.size() << " token(s))";
          FlightRecord(FlightEventType::kWatchdog,
                       slot->active_request_id.c_str(), "worker wedged",
                       now - busy_since);
          // A coalesced batch wedges as a unit: cancel every member so
          // none of them is left waiting on the stuck solve.
          for (const auto& token : slot->active_tokens) {
            if (token != nullptr) token->Cancel();
          }
          // Watchdog degradation is the incident the recorder exists for:
          // persist the rings now, while the wedged request's hop trail is
          // still in the buffer.
          DumpFlightRecorder("watchdog trip");
        }
      }
    }
    degraded_.store(any_wedged, std::memory_order_relaxed);
    lock.lock();
  }
}

void QueryServer::Drain() {
  if (drained_.exchange(true)) return;
  admission_.BeginDrain();
  const auto budget = std::chrono::duration<double, std::milli>(
      std::max(0.0, options_.drain_ms));
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_for(lock, budget, [this] { return admission_.idle(); });
  }
  // Budget spent (or nothing left): whatever still runs or waits in the
  // queue now observes cancel_all_ at its next cooperative checkpoint and
  // winds down with a "cancelled" response.
  cancel_all_.store(true, std::memory_order_relaxed);
  drain_cv_.notify_all();
  if (workers_started_) {
    for (std::thread& t : worker_threads_) t.join();
    worker_threads_.clear();
    if (watchdog_thread_.joinable()) watchdog_thread_.join();
    workers_started_ = false;
  }
}

// --- request handling --------------------------------------------------

void QueryServer::WriteToConn(const std::shared_ptr<Conn>& conn,
                              const std::string& line) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  const Status status = conn->transport->WriteLine(line);
  if (!status.ok()) {
    conn->dead.store(true, std::memory_order_relaxed);
    BEPI_LOG(Warning) << "dropping connection: " << status.ToString();
  }
}

std::string QueryServer::HealthState() const {
  if (admission_.draining()) return "draining";
  if (degraded_.load(std::memory_order_relaxed)) return "degraded";
  return "serving";
}

std::string QueryServer::HealthLine(const std::string& id_json) const {
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":true,\"health\":" + JsonQuote(HealthState());
  out += ",\"inflight\":" + std::to_string(admission_.in_service());
  out += ",\"queue_depth\":" + std::to_string(admission_.depth());
  out += ",\"slots\":" + std::to_string(workers_.size());
  out += "}";
  return out;
}

std::string QueryServer::StatsLine(const std::string& id_json) const {
  const ServerStatsSnapshot s = Stats();
  Histogram* latency =
      MetricsRegistry::Global().GetHistogram("server.latency_seconds");
  const HistogramSnapshot h = latency->Snapshot();
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":true,\"health\":" + JsonQuote(s.health);
  const auto field = [&out](const char* name, std::uint64_t v) {
    out += ",\"";
    out += name;
    out += "\":" + std::to_string(v);
  };
  field("accepted", s.accepted);
  field("completed", s.completed);
  field("rejected_overload", s.rejected_overload);
  field("rejected_invalid", s.rejected_invalid);
  field("rejected_draining", s.rejected_draining);
  field("rejected_conns", s.rejected_conns);
  field("deadline_exceeded", s.deadline_exceeded);
  field("cancelled", s.cancelled);
  field("partial", s.partial);
  field("watchdog_trips", s.watchdog_trips);
  field("slow_queries", s.slow_queries);
  field("queue_depth", s.queue_depth);
  field("inflight", s.inflight);
  field("coalesced", s.coalesced);
  field("cache_hits", s.cache_hits);
  field("cache_misses", s.cache_misses);
  field("cache_evictions", s.cache_evictions);
  field("cache_bytes", s.cache_bytes);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"latency_ms\":{\"count\":%llu,\"p50\":%.3f,\"p99\":%.3f"
                ",\"max\":%.3f}",
                static_cast<unsigned long long>(h.count), h.p50 * 1e3,
                h.p99 * 1e3, h.max * 1e3);
  out += buf;
  out += "}";
  return out;
}

ServerStatsSnapshot QueryServer::Stats() const {
  ServerStatsSnapshot s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.rejected_conns = rejected_conns_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.partial = partial_.load(std::memory_order_relaxed);
  s.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  s.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  s.queue_depth = admission_.depth();
  s.inflight = admission_.in_service();
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_bytes = cache_.bytes();
  s.health = HealthState();
  return s;
}

std::string QueryServer::MetricsLine(const std::string& id_json) const {
  // The whole registry as Prometheus text exposition, carried as one JSON
  // string field so the line protocol stays one-object-per-line. Answered
  // inline on the reader thread like health/stats: scrapes must not queue
  // behind the very overload they are trying to observe.
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":true,\"metrics\":" + JsonQuote(RenderPrometheusText());
  out += "}";
  return out;
}

std::string QueryServer::DumpLine(const std::string& id_json) const {
  std::ostringstream trace;
  const Status status = FlightRecorder::DumpJson(trace);
  if (!status.ok()) {
    return ErrorResponseLine(id_json, protocol_errors::kInternal,
                             status.message());
  }
  FlightRecord(FlightEventType::kDump, nullptr, "dump verb");
  // DumpJson pretty-prints across lines for dump files; the line protocol
  // is one object per line, so flatten the raw newlines (in-string ones
  // are escaped and unaffected).
  std::string flat = trace.str();
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  while (!flat.empty() && flat.back() == ' ') flat.pop_back();
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"ok\":true,\"flightrec\":" + flat;
  out += "}";
  return out;
}

std::string QueryServer::MintRequestId() {
  return "srv-" +
         std::to_string(request_seq_.fetch_add(1, std::memory_order_relaxed));
}

void QueryServer::DumpFlightRecorder(const char* why) {
  if (options_.flight_dump_path.empty()) return;
  FlightRecord(FlightEventType::kDump, nullptr, why);
  const Status status =
      FlightRecorder::DumpJsonFile(options_.flight_dump_path);
  if (status.ok()) {
    BEPI_LOG(Warning) << "flight recorder dumped to "
                      << options_.flight_dump_path << " (" << why << ")";
  } else {
    BEPI_LOG(Warning) << "flight recorder dump failed: " << status.ToString();
  }
}

void QueryServer::HandleLine(const std::shared_ptr<Conn>& conn,
                             const std::string& line) {
  if (line.empty()) return;  // blank lines are keep-alive noise
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    BEPI_METRIC_COUNTER(rejected, "server.rejected_invalid");
    rejected->Increment();
    const bool schema = parsed.status().code() == StatusCode::kInvalidArgument;
    WriteToConn(conn, ErrorResponseLine(
                          "", schema ? protocol_errors::kInvalidArgument
                                     : protocol_errors::kParse,
                          parsed.status().message()));
    return;
  }
  Request req = *parsed;
  if (req.op == RequestOp::kHealth) {
    WriteToConn(conn, HealthLine(req.id_json));
    return;
  }
  if (req.op == RequestOp::kStats) {
    WriteToConn(conn, StatsLine(req.id_json));
    return;
  }
  if (req.op == RequestOp::kMetrics) {
    WriteToConn(conn, MetricsLine(req.id_json));
    return;
  }
  if (req.op == RequestOp::kDump) {
    WriteToConn(conn, DumpLine(req.id_json));
    return;
  }

  // Trace context: every query carries a request_id from here on —
  // client-supplied or server-minted — and every response echoes it.
  if (req.request_id.empty()) req.request_id = MintRequestId();

  const index_t n = solver_.decomposition().n;
  if (req.seed < 0 || req.seed >= n) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    FlightRecord(FlightEventType::kShed, req.request_id.c_str(),
                 "seed out of range", req.seed);
    WriteToConn(conn,
                ErrorResponseLine(req.id_json,
                                  protocol_errors::kInvalidArgument,
                                  "seed " + std::to_string(req.seed) +
                                      " out of range [0, " +
                                      std::to_string(n) + ")",
                                  -1.0, req.request_id));
    return;
  }
  // The parser caps top_k at 1e9 without knowing the model; n is only
  // known here.
  if (req.top_k > n) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    FlightRecord(FlightEventType::kShed, req.request_id.c_str(),
                 "top_k out of range", req.top_k);
    WriteToConn(conn,
                ErrorResponseLine(req.id_json,
                                  protocol_errors::kInvalidArgument,
                                  "top_k " + std::to_string(req.top_k) +
                                      " out of range [1, " +
                                      std::to_string(n) + "]",
                                  -1.0, req.request_id));
    return;
  }

  auto token = std::make_shared<CancelToken>();
  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // The clock starts at admission: queue time counts against the
    // deadline, so a request cannot wait out its own usefulness.
    token->SetDeadlineAfter(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double, std::milli>(deadline_ms)));
  }
  token->LinkFlag(&cancel_all_);

  const auto admitted_at = Clock::now();
  auto server = this;
  double retry_after_ms = -1.0;
  const Status admitted = admission_.Submit(
      [server, conn, req, token, admitted_at](int slot) {
        server->CollectPending(slot, conn, req, token, admitted_at);
      },
      &retry_after_ms);
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      FlightRecord(FlightEventType::kShed, req.request_id.c_str(),
                   "overloaded", static_cast<std::int64_t>(retry_after_ms));
      WriteToConn(conn, ErrorResponseLine(req.id_json,
                                          protocol_errors::kOverloaded,
                                          admitted.message(),
                                          retry_after_ms, req.request_id));
    } else {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      FlightRecord(FlightEventType::kShed, req.request_id.c_str(),
                   "draining");
      WriteToConn(conn, ErrorResponseLine(req.id_json,
                                          protocol_errors::kDraining,
                                          admitted.message(), -1.0,
                                          req.request_id));
    }
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  BEPI_METRIC_COUNTER(accepted, "server.accepted");
  accepted->Increment();
  FlightRecord(FlightEventType::kAdmit, req.request_id.c_str(), "",
               req.seed);
}

void QueryServer::CollectPending(int slot, std::shared_ptr<Conn> conn,
                                 Request req,
                                 std::shared_ptr<CancelToken> token,
                                 Clock::time_point admitted_at) {
  workers_[slot]->pending.push_back(WorkerSlot::PendingQuery{
      std::move(conn), std::move(req), std::move(token), admitted_at});
}

void QueryServer::ExecuteBatch(int slot) {
  WorkerSlot& ws = *workers_[slot];
  std::vector<WorkerSlot::PendingQuery> batch = std::move(ws.pending);
  ws.pending.clear();
  if (batch.empty()) return;
  BEPI_METRIC_HISTOGRAM(width_hist, "server.batch_width");
  width_hist->RecordAlways(static_cast<double>(batch.size()));
  if (batch.size() == 1) {
    // A batch of one takes the scalar path verbatim — cache lookup,
    // per-slot workspace reuse and all — so an unloaded server behaves
    // exactly like the pre-batching one.
    const WorkerSlot::PendingQuery& pq = batch.front();
    ExecuteQuery(slot, pq.conn, pq.req, pq.token, pq.admitted_at);
    return;
  }

  // Cache pass first: hits leave without occupying the slot, and what
  // remains is exactly the work that needs a solver.
  std::vector<std::size_t> missed;
  missed.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const WorkerSlot::PendingQuery& pq = batch[i];
    const std::int64_t queue_ns = NowNs() - ToEpochNs(pq.admitted_at);
    if (!TryCacheHit(pq.conn, pq.req, queue_ns, pq.admitted_at)) {
      missed.push_back(i);
    }
  }
  if (missed.empty()) return;
  if (missed.size() == 1) {
    // Everything else hit: the lone miss takes the scalar path (its
    // lookup already counted, so ExecuteQuery must not repeat it).
    const WorkerSlot::PendingQuery& pq = batch[missed[0]];
    ExecuteQuery(slot, pq.conn, pq.req, pq.token, pq.admitted_at,
                 /*try_cache=*/false);
    return;
  }

  const std::int64_t exec_start_ns = NowNs();
  {
    // Tokens and busy timestamp change together under mu so the
    // watchdog's locked re-check can never pair a stale timestamp with
    // fresh tokens. The whole batch wedges (and is cancelled) as a unit.
    std::lock_guard<std::mutex> lock(ws.mu);
    ws.active_tokens.clear();
    for (const std::size_t i : missed) {
      ws.active_tokens.push_back(batch[i].token);
    }
    ws.active_request_id = batch[missed.front()].req.request_id;
    ws.busy_since_ns.store(exec_start_ns, std::memory_order_relaxed);
  }

  if (BEPI_FAULT_INJECTED(fault_sites::kServerExecStall)) {
    FlightRecord(FlightEventType::kFault,
                 batch[missed.front()].req.request_id.c_str(),
                 fault_sites::kServerExecStall);
    const auto stall_start = Clock::now();
    while (!batch[missed.front()].token->Expired() &&
           Clock::now() - stall_start < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // Duplicate seeds within the batch solve once: group members share the
  // first occurrence's result when it converges cleanly.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::unordered_map<index_t, std::size_t> group_of;
    group_of.reserve(missed.size());
    for (const std::size_t i : missed) {
      // Eps answers depend on the request's eps, not just the seed: each
      // gets a singleton group (and QueryMulti solves it alone). Exact
      // top_k requests are dense solves and share like any other.
      if (batch[i].req.mode_eps) {
        groups.emplace_back(1, i);
        continue;
      }
      const auto [it, inserted] =
          group_of.emplace(batch[i].req.seed, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  std::vector<MultiQueryItem> items;
  items.reserve(groups.size());
  for (const auto& group : groups) {
    const WorkerSlot::PendingQuery& primary = batch[group.front()];
    MultiQueryItem item;
    item.seed = primary.req.seed;
    item.control.cancel = primary.token.get();
    item.control.allow_partial = primary.req.allow_partial;
    item.control.request_id = primary.req.request_id.c_str();
    if (primary.req.mode_eps) {
      item.control.eps = static_cast<real_t>(primary.req.eps);
    }
    items.push_back(item);
  }
  std::vector<MultiQueryResult> results;
  const Status batch_status = solver_.QueryMulti(items, &results);
  const std::int64_t solve_ns = NowNs() - exec_start_ns;

  {
    std::lock_guard<std::mutex> lock(ws.mu);
    ws.busy_since_ns.store(0, std::memory_order_relaxed);
    ws.active_tokens.clear();
    ws.active_request_id.clear();
  }
  ws.wedged.store(false, std::memory_order_relaxed);

  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t m = 0; m < groups[g].size(); ++m) {
      const WorkerSlot::PendingQuery& pq = batch[groups[g][m]];
      const std::int64_t queue_ns = exec_start_ns - ToEpochNs(pq.admitted_at);
      if (!batch_status.ok()) {
        // Batch-level precondition failure (cannot normally happen for
        // seeds validated at admission): every member gets the error.
        FinishQuery(pq.conn, pq.req, batch_status, QueryStats(),
                    /*coalesced=*/false, /*insert_cache=*/false, queue_ns,
                    solve_ns, pq.admitted_at);
        continue;
      }
      const MultiQueryResult& r = results[g];
      const bool shareable =
          r.status.ok() && r.stats.outcome == SolveOutcome::kConverged;
      if (m == 0 || shareable) {
        Result<Vector> scores =
            r.status.ok() ? Result<Vector>(r.scores) : Result<Vector>(r.status);
        FinishQuery(pq.conn, pq.req, scores, r.stats, r.coalesced,
                    /*insert_cache=*/m == 0 && !pq.req.mode_eps, queue_ns,
                    solve_ns, pq.admitted_at);
      } else {
        // Duplicate of a primary that failed or only partially finished:
        // re-solve under this request's own token and partial policy so a
        // member with a healthy deadline is not poisoned by the
        // primary's cancellation.
        QueryStats dup_stats;
        QueryControl control;
        control.cancel = pq.token.get();
        control.allow_partial = pq.req.allow_partial;
        control.request_id = pq.req.request_id.c_str();
        const std::int64_t dup_start_ns = NowNs();
        auto dup =
            solver_.Query(pq.req.seed, &dup_stats, &ws.workspace, control);
        FinishQuery(pq.conn, pq.req, dup, dup_stats, /*coalesced=*/false,
                    /*insert_cache=*/true, queue_ns, NowNs() - dup_start_ns,
                    pq.admitted_at);
      }
    }
  }
}

bool QueryServer::TryCacheHit(const std::shared_ptr<Conn>& conn,
                              const Request& req, std::int64_t queue_ns,
                              Clock::time_point admitted_at) {
  if (!cache_.enabled()) return false;
  // Eps-mode answers depend on the request's eps (truncated solve, its
  // own bound): never served from — and never counted against — the
  // cache. Exact top-k answers ARE the cached ranking's prefix: a
  // demoted compact entry keeps serving top_k <= kCompactTopK.
  if (req.mode_eps) return false;
  const index_t lookup_k = req.top_k > 0 ? req.top_k : req.topk;
  const bool lookup_scores = req.top_k > 0 ? false : req.want_scores;
  ScoreCacheHit hit;
  if (!cache_.Lookup(fingerprint_, req.seed, lookup_k, lookup_scores,
                     &hit)) {
    return false;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  BEPI_METRIC_COUNTER(completed, "server.completed");
  completed->Increment();
  const std::int64_t admitted_ns = ToEpochNs(admitted_at);
  const double total_seconds =
      std::chrono::duration<double>(Clock::now() - admitted_at).count();
  Histogram* latency =
      MetricsRegistry::Global().GetHistogram("server.latency_seconds");
  latency->RecordAlways(total_seconds);
  // Deliberately NOT fed into the retry-after EWMA: hits are orders of
  // magnitude cheaper than solves, and the hint must describe the cost a
  // rejected (cache-missing) retry would actually pay.

  // Only converged un-degraded solves are inserted, so a hit replays
  // outcome "converged" with the original solve's iteration count and
  // residual byte-for-byte; "stage":"cache" is what marks it a hit.
  std::string out = "{";
  if (!req.id_json.empty()) out += "\"id\":" + req.id_json + ",";
  out += "\"ok\":true,\"request_id\":" + JsonQuote(req.request_id);
  out += ",\"seed\":" + std::to_string(req.seed);
  out += ",\"partial\":false";
  out += ",\"outcome\":" + JsonQuote(SolveOutcomeName(SolveOutcome::kConverged));
  out += ",\"stage\":\"cache\"";
  out += ",\"iterations\":" + std::to_string(hit.iterations);
  out += ",\"residual\":";
  AppendReal(&out, hit.residual);
  char buf[48];
  std::snprintf(buf, sizeof buf, ",\"ms\":%.3f", total_seconds * 1e3);
  out += buf;
  out += ",";
  QueryReport cache_report;
  SolveAttempt attempt;
  attempt.stage = "cache";
  attempt.outcome = SolveOutcome::kConverged;
  attempt.iterations = hit.iterations;
  attempt.residual = hit.residual;
  attempt.seconds = 0.0;
  cache_report.attempts.push_back(std::move(attempt));
  AppendTimingJson(&out, queue_ns, 0, NowNs() - admitted_ns, cache_report);
  out += ",\"topk\":[";
  for (std::size_t i = 0; i < hit.topk.size(); ++i) {
    if (i > 0) out += ",";
    out += "[";
    out += std::to_string(hit.topk[i].first);
    out += ",";
    AppendReal(&out, hit.topk[i].second);
    out += "]";
  }
  out += "]";
  if (req.top_k > 0) out += ",\"mode\":\"exact\"";
  if (req.want_scores) {
    out += ",\"scores\":[";
    for (std::size_t i = 0; i < hit.scores.size(); ++i) {
      if (i > 0) out += ",";
      AppendReal(&out, hit.scores[i]);
    }
    out += "]";
  }
  out += "}";
  WriteToConn(conn, out);
  FlightRecord(FlightEventType::kComplete, req.request_id.c_str(), "cache",
               NowNs() - admitted_ns);
  return true;
}

void QueryServer::ExecuteQuery(int slot, const std::shared_ptr<Conn>& conn,
                               const Request& req,
                               const std::shared_ptr<CancelToken>& token,
                               Clock::time_point admitted_at, bool try_cache) {
  WorkerSlot& ws = *workers_[slot];
  const std::int64_t exec_start_ns = NowNs();
  const std::int64_t admitted_ns = ToEpochNs(admitted_at);
  const std::int64_t queue_ns = exec_start_ns - admitted_ns;
  if (try_cache && TryCacheHit(conn, req, queue_ns, admitted_at)) return;
  {
    // Token and busy timestamp change together under mu so the watchdog's
    // locked re-check can never pair a stale timestamp with a fresh token.
    std::lock_guard<std::mutex> lock(ws.mu);
    ws.active_tokens.assign(1, token);
    ws.active_request_id = req.request_id;
    ws.busy_since_ns.store(exec_start_ns, std::memory_order_relaxed);
  }

  // Deterministic watchdog driver: appear wedged (sleeping, not spinning)
  // until the watchdog cancels this request's token, so tests can trip the
  // trip-and-dump path on a timescale they control. Hard 10 s cap in case
  // nobody is watching.
  if (BEPI_FAULT_INJECTED(fault_sites::kServerExecStall)) {
    FlightRecord(FlightEventType::kFault, req.request_id.c_str(),
                 fault_sites::kServerExecStall);
    const auto stall_start = Clock::now();
    while (!token->Expired() &&
           Clock::now() - stall_start < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  QueryStats stats;
  QueryControl control;
  control.cancel = token.get();
  control.allow_partial = req.allow_partial;
  control.request_id = req.request_id.c_str();
  if (req.mode_eps) control.eps = static_cast<real_t>(req.eps);
  Result<Vector> scores =
      solver_.Query(req.seed, &stats, &ws.workspace, control);
  const std::int64_t solve_ns = NowNs() - exec_start_ns;

  {
    std::lock_guard<std::mutex> lock(ws.mu);
    ws.busy_since_ns.store(0, std::memory_order_relaxed);
    ws.active_tokens.clear();
    ws.active_request_id.clear();
  }
  ws.wedged.store(false, std::memory_order_relaxed);

  FinishQuery(conn, req, scores, stats, /*coalesced=*/false,
              /*insert_cache=*/!req.mode_eps, queue_ns, solve_ns,
              admitted_at);
}

void QueryServer::FinishQuery(const std::shared_ptr<Conn>& conn,
                              const Request& req,
                              const Result<Vector>& scores,
                              const QueryStats& stats, bool coalesced,
                              bool insert_cache, std::int64_t queue_ns,
                              std::int64_t solve_ns,
                              Clock::time_point admitted_at) {
  const std::int64_t admitted_ns = ToEpochNs(admitted_at);
  const double total_seconds =
      std::chrono::duration<double>(Clock::now() - admitted_at).count();
  Histogram* latency =
      MetricsRegistry::Global().GetHistogram("server.latency_seconds");
  latency->RecordAlways(total_seconds);
  // Feed the retry-after estimator from full solves only: a burst of
  // instantly-cancelled requests (deadline already expired, drain) would
  // otherwise drag the EWMA toward zero and make retry_after_ms
  // dishonestly small during exactly the overload it describes.
  if (scores.ok() && stats.outcome != SolveOutcome::kCancelled) {
    admission_.RecordServiceSeconds(stats.seconds);
  }

  std::string out;
  bool succeeded = false;
  if (!scores.ok()) {
    const StatusCode code = scores.status().code();
    const char* error = protocol_errors::kInternal;
    if (code == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      BEPI_METRIC_COUNTER(deadline, "server.deadline_exceeded");
      deadline->Increment();
      error = protocol_errors::kDeadlineExceeded;
      FlightRecord(FlightEventType::kDeadline, req.request_id.c_str(), "",
                   solve_ns);
    } else if (code == StatusCode::kCancelled) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      BEPI_METRIC_COUNTER(cancelled, "server.cancelled");
      cancelled->Increment();
      error = protocol_errors::kCancelled;
      FlightRecord(FlightEventType::kCancel, req.request_id.c_str(), "",
                   solve_ns);
    }
    out = ErrorResponseLine(req.id_json, error, scores.status().message(),
                            -1.0, req.request_id);
  } else {
    succeeded = true;
    const bool is_partial = stats.outcome == SolveOutcome::kCancelled;
    if (is_partial) partial_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    BEPI_METRIC_COUNTER(completed, "server.completed");
    completed->Increment();
    if (coalesced) coalesced_.fetch_add(1, std::memory_order_relaxed);
    // Only clean converged primary-hop solves enter the cache: a partial,
    // degraded or stochastic (mc) answer must never be replayed to a
    // later request as if it were the healthy-path result.
    if (insert_cache && stats.outcome == SolveOutcome::kConverged &&
        stats.report.attempts.size() <= 1) {
      cache_.Insert(fingerprint_, req.seed, *scores, stats.total_iterations,
                    stats.residual);
    }

    out = "{";
    if (!req.id_json.empty()) out += "\"id\":" + req.id_json + ",";
    out += "\"ok\":true,\"request_id\":" + JsonQuote(req.request_id);
    out += ",\"seed\":" + std::to_string(req.seed);
    out += ",\"partial\":";
    out += is_partial ? "true" : "false";
    if (coalesced) out += ",\"coalesced\":true";
    out += ",\"outcome\":" + JsonQuote(SolveOutcomeName(stats.outcome));
    // Which degradation-chain stage produced the answer ("ilu0+gmres" ..
    // "mc"); operators alert on "mc" = every linear-algebra path is down.
    if (!stats.report.attempts.empty()) {
      out += ",\"stage\":" + JsonQuote(stats.report.attempts.back().stage);
    }
    out += ",\"iterations\":" + std::to_string(stats.total_iterations);
    // %.17g round-trips doubles exactly: these scores are bit-comparable
    // against a one-shot `bepi_cli query --dump-scores` of the same model.
    out += ",\"residual\":";
    AppendReal(&out, stats.residual);
    char buf[48];
    std::snprintf(buf, sizeof buf, ",\"ms\":%.3f", total_seconds * 1e3);
    out += buf;
    out += ",";
    AppendTimingJson(&out, queue_ns, solve_ns,
                     NowNs() - admitted_ns, stats.report);
    out += ",\"topk\":[";
    const auto ranking =
        TopK(*scores, req.top_k > 0 ? req.top_k : req.topk, req.seed);
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      if (i > 0) out += ",";
      out += "[";
      out += std::to_string(ranking[i].first);
      out += ",";
      AppendReal(&out, ranking[i].second);
      out += "]";
    }
    out += "]";
    if (req.top_k > 0) {
      BEPI_METRIC_COUNTER(topk_queries, "topk.queries");
      topk_queries->Increment();
      out += ",\"mode\":";
      out += req.mode_eps ? "\"eps\"" : "\"exact\"";
      if (req.mode_eps) {
        out += ",\"bound\":";
        AppendReal(&out, stats.error_bound);
      }
    }
    if (req.want_scores) {
      out += ",\"scores\":[";
      const Vector& v = *scores;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ",";
        AppendReal(&out, v[i]);
      }
      out += "]";
    }
    out += "}";
  }

  const std::int64_t write_start_ns = NowNs();
  WriteToConn(conn, out);
  const std::int64_t write_ns = NowNs() - write_start_ns;
  const std::int64_t total_ns = NowNs() - admitted_ns;
  const char* stage = stats.report.attempts.empty()
                          ? "-"
                          : stats.report.attempts.back().stage.c_str();
  if (succeeded) {
    FlightRecord(FlightEventType::kComplete, req.request_id.c_str(), stage,
                 total_ns);
  }

  // Slow-query forensics: one structured line per offender with the full
  // breakdown (the response's timing object cannot carry write_ns — the
  // response is serialized before the write), and the offender's
  // request_id pinned to the latency histogram as its exemplar so a scrape
  // showing a fat tail names a concrete request to go look up.
  if (options_.slow_ms > 0.0 &&
      static_cast<double>(total_ns) / 1e6 > options_.slow_ms) {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    BEPI_METRIC_COUNTER(slow, "server.slow_queries");
    slow->Increment();
    latency->SetExemplar(static_cast<double>(total_ns) / 1e9,
                         req.request_id);
    FlightRecord(FlightEventType::kSlowQuery, req.request_id.c_str(), stage,
                 total_ns);
    BEPI_LOG(Warning) << "slow query: request_id=" << req.request_id
                      << " seed=" << req.seed << " stage=" << stage
                      << " queue_ns=" << queue_ns << " solve_ns=" << solve_ns
                      << " write_ns=" << write_ns << " total_ns=" << total_ns
                      << " chain=[" << stats.report.Summary() << "]";
  }
}

// --- serve loops -------------------------------------------------------

void QueryServer::ReadLoop(const std::shared_ptr<Conn>& conn) {
  std::string line;
  while (!conn->dead.load(std::memory_order_relaxed)) {
    auto got = conn->transport->ReadLine(&line);
    if (!got.ok()) {
      const StatusCode code = got.status().code();
      if (code == StatusCode::kOutOfRange) {
        // Over-long line: already discarded in bounded memory; the
        // connection stays usable.
        rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
        WriteToConn(conn, ErrorResponseLine("", protocol_errors::kParse,
                                            got.status().message()));
        continue;
      }
      if (code == StatusCode::kCancelled) break;  // drain wake
      BEPI_LOG(Warning) << "closing connection: " << got.status().ToString();
      break;
    }
    if (!*got) break;  // clean EOF
    HandleLine(conn, line);
    if (ShutdownRequested()) break;
  }
}

Status QueryServer::ServeStream(std::istream& in, std::ostream& out) {
  StartWorkers();
  auto conn = std::make_shared<Conn>();
  StreamTransport transport(in, out, options_.max_line_bytes);
  conn->transport = &transport;
  ReadLoop(conn);
  // EOF (or a shutdown signal breaking the blocking read) ends the
  // session: stop admitting, drain, report how it ended.
  FlightRecord(FlightEventType::kShutdown, nullptr, "stream eof/drain");
  RequestDrain();
  Drain();
  if (ShutdownRequested()) {
    BEPI_LOG(Info) << "drained after signal " << ShutdownSignal();
    DumpFlightRecorder("fatal signal");
  }
  return Status::Ok();
}

Status QueryServer::ServeUnixSocket(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  fcntl(listen_fd, F_SETFD, fcntl(listen_fd, F_GETFD) | FD_CLOEXEC);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());  // replace a stale socket file from a crashed run
  if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const Status status =
        Status::IoError("bind " + path + ": " + std::strerror(errno));
    close(listen_fd);
    return status;
  }
  if (listen(listen_fd, 64) != 0) {
    const Status status =
        Status::IoError("listen " + path + ": " + std::strerror(errno));
    close(listen_fd);
    unlink(path.c_str());
    return status;
  }

  StartWorkers();
  BEPI_LOG(Info) << "serving on " << path << " (" << options_.slots
                 << " slots, queue " << options_.max_queue << ")";

  // Connection threads are detached and tracked only by this count:
  // each decrements it (and notifies, under the lock, so the waiter
  // below cannot race destruction) as its ReadLoop returns, so a
  // long-running server holds resources for live connections only —
  // never one dead thread per connection ever accepted.
  std::mutex conn_mu;
  std::condition_variable conn_cv;
  std::size_t live_conns = 0;
  const std::size_t max_conns =
      static_cast<std::size_t>(std::max(1, options_.max_conns));
  while (true) {
    struct pollfd fds[3];
    fds[0] = {listen_fd, POLLIN, 0};
    nfds_t nfds = 1;
    if (wake_pipe_[0] >= 0) fds[nfds++] = {wake_pipe_[0], POLLIN, 0};
    const int shutdown_fd = ShutdownPipeFd();
    if (shutdown_fd >= 0) fds[nfds++] = {shutdown_fd, POLLIN, 0};
    const int rc = poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        if (ShutdownRequested()) break;
        continue;
      }
      break;
    }
    bool woke = false;
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) != 0) woke = true;
    }
    if (woke || ShutdownRequested()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) continue;
    {
      std::unique_lock<std::mutex> lock(conn_mu);
      if (live_conns >= max_conns) {
        lock.unlock();
        rejected_conns_.fetch_add(1, std::memory_order_relaxed);
        BEPI_METRIC_COUNTER(shed, "server.rejected_conns");
        shed->Increment();
        BEPI_LOG(Warning) << "shedding connection: " << max_conns
                          << " already open";
        FdTransport reject(cfd, options_.max_line_bytes,
                           options_.write_timeout_ms, wake_pipe_[0]);
        reject.WriteLine(ErrorResponseLine(
            "", protocol_errors::kOverloaded,
            "connection limit reached (" + std::to_string(max_conns) + ")",
            admission_.EstimateRetryAfterMs()));
        continue;  // FdTransport owns cfd and closes it
      }
      ++live_conns;
    }
    auto conn = std::make_shared<Conn>();
    conn->owned = std::make_unique<FdTransport>(
        cfd, options_.max_line_bytes, options_.write_timeout_ms,
        wake_pipe_[0]);
    conn->transport = conn->owned.get();
    std::thread([this, conn, &conn_mu, &conn_cv, &live_conns] {
      ReadLoop(conn);
      std::lock_guard<std::mutex> lock(conn_mu);
      --live_conns;
      conn_cv.notify_all();
    }).detach();
  }

  close(listen_fd);
  FlightRecord(FlightEventType::kShutdown, nullptr, "socket drain");
  RequestDrain();  // wakes every FdTransport poller via wake_pipe_
  Drain();
  {
    // Readers woke on wake_pipe_ above and writers are bounded by
    // write_timeout_ms, so every detached connection thread exits; wait
    // for the last one before the locals it references go away.
    std::unique_lock<std::mutex> lock(conn_mu);
    conn_cv.wait(lock, [&] { return live_conns == 0; });
  }
  unlink(path.c_str());
  if (ShutdownRequested()) {
    BEPI_LOG(Info) << "drained after signal " << ShutdownSignal();
    DumpFlightRecorder("fatal signal");
  }
  return Status::Ok();
}

}  // namespace bepi
