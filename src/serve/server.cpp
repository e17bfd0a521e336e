#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/golden_file.h"
#include "scenario/runner.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"

namespace nanoleak::serve {

namespace {

/// serve.* registry metrics: the daemon's externally visible behaviour
/// (request mix, admission outcomes, drain) without holding a server
/// reference. See docs/OBSERVABILITY.md for the catalogue.
struct ServeMetrics {
  obs::Counter connections = obs::counter("serve.connections");
  obs::Counter requests = obs::counter("serve.requests");
  obs::Counter responses = obs::counter("serve.responses");
  obs::Counter errors = obs::counter("serve.errors");
  obs::Counter busy_rejections = obs::counter("serve.busy_rejections");
  obs::Counter drain_rejections = obs::counter("serve.drain_rejections");
  obs::Counter overload_rejections =
      obs::counter("serve.overload_rejections");
  obs::Counter deadline_exceeded = obs::counter("serve.deadline_exceeded");
  obs::Counter idle_disconnects = obs::counter("serve.idle_disconnects");
  obs::Counter write_evictions = obs::counter("serve.write_evictions");
  obs::Gauge queue_depth = obs::gauge("serve.queue_depth");
};

const ServeMetrics& serveMetrics() {
  static const ServeMetrics m;
  return m;
}

/// Reader poll slice: the latency bound on noticing a shutdown while a
/// connection is idle.
constexpr int kPollSliceMs = 100;

/// Base of the deterministic `busy` retry hint: one queue-drain slice
/// per currently queued request ahead of the rejected one, per worker.
constexpr std::uint64_t kBusyRetrySliceMs = 100;

/// Queue lane identity: requests carrying a tenant share that tenant's
/// fairness lane across connections (the top bit separates the hash
/// space from raw connection ids); anonymous requests stay per-conn.
std::uint64_t laneFor(std::uint64_t connection_id,
                      const std::string& tenant) {
  if (tenant.empty()) {
    return connection_id;
  }
  return std::hash<std::string>{}(tenant) | (1ull << 63);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(scenario::builtinRegistry()),
      tables_(std::make_shared<engine::TableCache>()),
      plans_(std::make_shared<engine::PlanCache>(
          options_.plan_cache_entries)),
      queue_(options_.queue_capacity),
      quotas_(TenantQuotas::Options{options_.quota_rps,
                                    options_.quota_burst}) {
  require(!options_.socket_path.empty() || options_.tcp_port >= 0,
          "serve: configure a unix socket path and/or a tcp port");
  require(options_.workers >= 1, "serve: workers must be >= 1");
  tables_->setMaxEntries(options_.table_cache_entries);
}

Server::~Server() {
  requestShutdown();
  if (started_ && !joined_) {
    wait();
  }
}

void Server::start() {
  require(!started_, "serve: start() called twice");
  if (!options_.socket_path.empty()) {
    unix_listener_ = Socket::listenUnix(options_.socket_path);
  }
  if (options_.tcp_port >= 0) {
    tcp_listener_ = Socket::listenTcp(
        static_cast<std::uint16_t>(options_.tcp_port), &tcp_port_);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { acceptLoop(); });
  executors_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    executors_.emplace_back([this] { executorLoop(); });
  }
}

void Server::requestShutdown() {
  // Flag + queue close only: joins happen in wait() on the owner thread,
  // so a connection reader relaying a client "shutdown" op never tries
  // to join itself.
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_.store(true);
  }
  queue_.close();
  shutdown_cv_.notify_all();
}

void Server::wait() {
  require(started_, "serve: wait() before start()");
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [&] { return shutdown_.load(); });
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Executors drain the closed queue - every admitted request still
  // gets its response - then exit on the queue's end-of-stream.
  for (std::thread& executor : executors_) {
    if (executor.joinable()) {
      executor.join();
    }
  }
  // Readers notice the shutdown flag within one poll slice. Joining them
  // last keeps their connections writable while executors respond.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (std::thread& reader : readers) {
    if (reader.joinable()) {
      reader.join();
    }
  }
  // The socket file is this daemon's to clean up; removing it makes
  // "address already in use" impossible for the next start.
  if (!options_.socket_path.empty()) {
    unix_listener_.closeNow();
    ::unlink(options_.socket_path.c_str());
  }
  joined_ = true;
}

void Server::acceptLoop() {
  while (!shutdown_.load()) {
    for (Socket* listener : {&unix_listener_, &tcp_listener_}) {
      if (!listener->valid()) {
        continue;
      }
      std::optional<Socket> accepted;
      try {
        accepted = listener->acceptWithTimeout(kPollSliceMs / 2);
      } catch (const Error&) {
        // Accept failures (fd limits, transient kernel errors) must not
        // kill the daemon; the listener stays armed.
        serveMetrics().errors.increment();
        continue;
      }
      if (!accepted || shutdown_.load()) {
        continue;
      }
      if (options_.send_buffer_bytes > 0) {
        // Test hook: a tiny send buffer makes "client not draining"
        // reproducible without megabytes of pipelined traffic.
        const int size = options_.send_buffer_bytes;
        ::setsockopt(accepted->fd(), SOL_SOCKET, SO_SNDBUF, &size,
                     sizeof(size));
      }
      auto conn = std::make_shared<Connection>();
      conn->sock = std::move(*accepted);
      conn->id = next_connection_id_.fetch_add(1) + 1;
      serveMetrics().connections.increment();
      std::lock_guard<std::mutex> lock(readers_mutex_);
      readers_.emplace_back([this, conn] { readerLoop(conn); });
    }
  }
}

void Server::readerLoop(const std::shared_ptr<Connection>& conn) {
  try {
    auto last_activity = std::chrono::steady_clock::now();
    while (!shutdown_.load()) {
      if (!waitReadable(conn->sock.fd(), kPollSliceMs)) {
        if (conn->in_flight.load() > 0) {
          // Admitted work still executing counts as activity: never
          // disconnect a client that is only waiting for its response.
          last_activity = std::chrono::steady_clock::now();
          continue;
        }
        if (options_.idle_timeout_ms > 0 &&
            std::chrono::steady_clock::now() - last_activity >=
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          // A client that connects and never sends would otherwise pin
          // this reader (and its fd) for the daemon's lifetime.
          serveMetrics().idle_disconnects.increment();
          conn->sock.shutdownNow();
          break;
        }
        continue;  // idle slice; re-check the shutdown flag
      }
      std::optional<std::string> frame = readFrame(conn->sock.fd());
      if (!frame) {
        break;  // client hung up cleanly
      }
      last_activity = std::chrono::steady_clock::now();
      handleFrame(conn, *frame);
    }
  } catch (const std::exception&) {
    // Malformed framing or a read error tears down this connection
    // only; the daemon keeps serving the others. The shutdown gives the
    // peer a prompt EOF so a retrying client reconnects immediately
    // instead of waiting out its request timeout.
    serveMetrics().errors.increment();
    conn->sock.shutdownNow();
  }
  // Deliberately no close here: jobs already admitted for this
  // connection may still be executing, and their responses must reach
  // the peer during a graceful drain. The socket closes when the last
  // Connection owner (reader or job) lets go.
}

void Server::handleFrame(const std::shared_ptr<Connection>& conn,
                         const std::string& frame) {
  serveMetrics().requests.increment();
  scenario::ServeRequest request;
  try {
    request = scenario::decodeRequest(frame);
  } catch (const std::exception& e) {
    serveMetrics().errors.increment();
    scenario::ServeResponse response;
    response.status = scenario::ServeStatus::kError;
    response.message = e.what();
    respond(*conn, response);
    return;
  }

  scenario::ServeResponse response;
  response.id = request.id;
  switch (request.op) {
    case scenario::ServeOp::kPing:
      respond(*conn, response);
      return;
    case scenario::ServeOp::kStats:
      // Diagnostic snapshot, answered on the reader thread: cheap, and
      // deliberately not routed through admission so operators can
      // observe a daemon whose queue is saturated.
      response.payload = obs::snapshot().toJson() + "\n";
      respond(*conn, response);
      return;
    case scenario::ServeOp::kShutdown:
      // Flag before ack, so a client holding the ack sees a draining
      // daemon. The ack still goes out: wait() joins readers last.
      requestShutdown();
      respond(*conn, response);
      return;
    case scenario::ServeOp::kRun:
    case scenario::ServeOp::kEstimate:
    case scenario::ServeOp::kMonteCarlo:
    case scenario::ServeOp::kThermal:
      break;
  }

  const auto arrival = std::chrono::steady_clock::now();
  if (quotas_.enabled()) {
    // Anonymous requests are charged per connection, so one unnamed
    // client cannot drain a shared anonymous bucket for everyone.
    const std::string tenant = request.tenant.empty()
                                   ? "conn/" + std::to_string(conn->id)
                                   : request.tenant;
    const TenantQuotas::Decision decision = quotas_.admit(tenant, arrival);
    if (!decision.admitted) {
      serveMetrics().overload_rejections.increment();
      response.status = scenario::ServeStatus::kOverloaded;
      response.message = "tenant '" + tenant + "' over admission quota";
      response.retry_after_ms = decision.retry_after_ms;
      respond(*conn, response);
      return;
    }
  }

  const std::uint64_t lane = laneFor(conn->id, request.tenant);
  const FairQueue<Job>::Push outcome =
      queue_.push(lane, Job{std::move(request), conn, arrival});
  serveMetrics().queue_depth.set(static_cast<double>(queue_.size()));
  switch (outcome) {
    case FairQueue<Job>::Push::kAccepted:
      conn->in_flight.fetch_add(1);
      return;  // an executor responds
    case FairQueue<Job>::Push::kFull:
      serveMetrics().busy_rejections.increment();
      response.status = scenario::ServeStatus::kBusy;
      response.message = "admission queue full";
      // Deterministic hint: one drain slice per queued request ahead of
      // this one, spread across the workers.
      response.retry_after_ms =
          kBusyRetrySliceMs *
          (queue_.size() / static_cast<std::size_t>(options_.workers) + 1);
      respond(*conn, response);
      return;
    case FairQueue<Job>::Push::kClosed:
      serveMetrics().drain_rejections.increment();
      response.status = scenario::ServeStatus::kShuttingDown;
      response.message = "daemon is draining";
      respond(*conn, response);
      return;
  }
}

void Server::executorLoop() {
  // Each executor owns its runner (ThreadPool admits one controller at a
  // time) but shares the corner-table cache with every other executor;
  // the plan cache is shared one level up in execute().
  engine::BatchRunner runner(engine::BatchOptions{
      .threads = options_.threads, .cache = tables_});
  while (std::optional<Job> job = queue_.pop()) {
    serveMetrics().queue_depth.set(static_cast<double>(queue_.size()));
    std::optional<util::CancelToken> token;
    if (job->request.deadline_ms > 0) {
      token.emplace(job->arrival, job->request.deadline_ms);
    }
    scenario::ServeResponse response =
        execute(job->request, runner, token ? &*token : nullptr);
    respond(*job->conn, response);
    job->conn->in_flight.fetch_sub(1);
  }
}

scenario::ServeResponse Server::execute(
    const scenario::ServeRequest& request, engine::BatchRunner& runner,
    const util::CancelToken* token) {
  OBS_SPAN("serve.request", toString(request.op));
  scenario::ServeResponse response;
  response.id = request.id;
  // A coalesced cache waiter can inherit DeadlineExceeded from the
  // *owner* of an in-flight build whose own deadline expired (the failed
  // entry is erased, so a retry rebuilds). Retry a bounded number of
  // times while this request's own budget is intact.
  constexpr int kMaxInheritedRetries = 3;
  for (int attempt = 0;; ++attempt) {
    try {
      util::CancelScope cancel_scope(token);
      // Expired in the queue (or on a retry): fail before compiling or
      // solving anything.
      util::pollCancel();
      FAULT_POINT("serve.executor.dispatch");
      if (request.op == scenario::ServeOp::kRun) {
        response.payload = scenario::serializeSuite(
            scenario::runSuiteOn(registry_, request.target, runner,
                                 plans_.get()));
      } else {
        // Inline scenario: a suite of one, serialized canonically - the
        // same bytes `nanoleak run` would print for this scenario.
        scenario::SuiteResult suite;
        suite.suite = request.scenario.name;
        suite.scenarios.push_back(
            scenario::runScenario(request.scenario, runner, plans_.get()));
        response.payload = scenario::serializeSuite(suite);
      }
      return response;
    } catch (const util::DeadlineExceeded& e) {
      const bool own = token != nullptr && token->expired();
      if (!own && attempt < kMaxInheritedRetries) {
        continue;  // inherited from another request's build; rebuild
      }
      response.payload.clear();
      if (own) {
        serveMetrics().deadline_exceeded.increment();
        response.status = scenario::ServeStatus::kDeadlineExceeded;
        response.message = "deadline of " +
                           std::to_string(request.deadline_ms) +
                           " ms exceeded";
      } else {
        serveMetrics().errors.increment();
        response.status = scenario::ServeStatus::kError;
        response.message = e.what();
      }
      return response;
    } catch (const std::exception& e) {
      serveMetrics().errors.increment();
      response.status = scenario::ServeStatus::kError;
      response.payload.clear();
      response.message = e.what();
      return response;
    }
  }
}

void Server::respond(Connection& conn,
                     const scenario::ServeResponse& response) {
  const std::string encoded = scenario::encodeResponse(response);
  const int timeout_ms =
      options_.write_timeout_ms > 0 ? options_.write_timeout_ms : -1;
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.sock.valid()) {
    return;
  }
  try {
    if (writeFrame(conn.sock.fd(), encoded, timeout_ms)) {
      serveMetrics().responses.increment();
    }
  } catch (const std::exception&) {
    // Write timeout, injected socket fault, or a non-EPIPE send error:
    // the frame stream is in an unknown state, so evict the connection
    // (shutdown, not close - stale fd reuse is impossible while other
    // threads still hold the Connection). The daemon keeps serving.
    serveMetrics().errors.increment();
    serveMetrics().write_evictions.increment();
    conn.sock.shutdownNow();
  }
}

}  // namespace nanoleak::serve
