#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

/// \file http.hpp
/// Minimal HTTP/1.1 plumbing for the `saga serve` daemon: a loopback TCP
/// server that parses requests, dispatches them to a handler on a worker
/// pool, and writes the responses (keep-alive supported). A response is
/// either buffered and Content-Length framed, or, when the handler sets
/// `HttpResponse::chunk_source`, streamed with Transfer-Encoding: chunked
/// (by default `/v1/compare` streams rosters of 8 or more rows). HttpClient
/// is the small blocking client of the tests, the smoke probe, bench_serve
/// and the benchmark's load generator; it reads both framings and hands
/// back a de-chunked body. Dependency-free (POSIX sockets); HTTPS and
/// proxies are out of scope — production deployments put this behind a
/// terminating proxy.
///
/// Concurrency model: one acceptor thread hands each connection to the
/// ThreadPool; a connection occupies its worker for its whole lifetime
/// (requests on one connection are served in order), so keep at most
/// `threads` concurrent connections for full throughput — additional
/// connections queue (visible as saga_queue_depth). stop() drains
/// gracefully: accepting stops, requests already in flight (or already
/// buffered on an accepted connection) complete and their responses are
/// written, then workers join.

namespace saga::serve {

class AdmissionController;

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form, e.g. "/v1/schedule"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  // names lower-cased
  std::string body;

  /// First header with the given lower-case name; nullptr when absent.
  [[nodiscard]] const std::string* header(std::string_view name_lower) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (Content-Type/Length/Connection are emitted
  /// automatically).
  std::vector<std::pair<std::string, std::string>> headers;
  /// Streaming body: when set, the response is sent with
  /// `Transfer-Encoding: chunked` — the head goes out first, then the
  /// source is pulled repeatedly on the serving worker's thread; each
  /// non-empty return is one chunk, an empty return ends the body. `body`
  /// must be empty. The de-chunked byte stream must equal what the
  /// buffered path would have produced (the serve determinism pins compare
  /// exactly that). If the source throws mid-stream the connection is
  /// closed without the final chunk, which clients see as truncation (the
  /// status line has already been sent, so no error response is possible).
  /// HTTP/1.0 requesters cannot parse chunked framing; for them the stream
  /// is drained into a buffered Content-Length response instead.
  std::function<std::string()> chunk_source;
};

[[nodiscard]] std::string_view status_reason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  struct Options {
    std::uint16_t port = 0;        // 0 = kernel-assigned ephemeral port
    std::size_t threads = 0;       // worker pool size; 0 = hardware concurrency
    std::size_t max_body = 8u << 20;  // bytes; larger requests get 413
    int keep_alive_ms = 5000;      // idle wait for the next request on a connection
    /// Accept-level backstop (0 = unlimited): connections are handed to the
    /// pool through ThreadPool::try_submit with this queue bound; when even
    /// that many connections are already waiting, the acceptor answers a
    /// best-effort canned 429 and closes instead of queueing. This layer is
    /// path-blind (the request was never read), so it is memory protection
    /// against pathological floods, not admission control — size it well
    /// above the AdmissionController's max_queue so scrapes are never
    /// caught by it in practice.
    std::size_t max_pending = 0;
    /// Shared admission controller; only consulted for the max_pending
    /// backstop's canned 429 (shed counting + Retry-After). May be null.
    /// Not owned; must outlive the server.
    AdmissionController* admission = nullptr;
  };

  /// Binds 127.0.0.1:port, starts listening and accepting. Throws
  /// std::runtime_error (with errno text) when the socket cannot be set up.
  HttpServer(const Options& options, HttpHandler handler);

  /// Calls stop().
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The actually bound port (the kernel's choice under port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting, let handlers in flight (and requests
  /// already buffered on accepted connections) finish, join all workers.
  /// Idempotent; safe to call from any thread except a handler.
  void stop();

  /// Memory order: relaxed is correct for this flag because it carries no
  /// payload — nothing is published "along with" it. The actual shutdown
  /// synchronization is structural: stop() joins the acceptor thread and
  /// quiesces the worker pool via ThreadPool::shutdown() (which locks the
  /// queue mutex and joins every worker) before touching any shared state
  /// — including the pool_ pointer itself, which in-flight handlers read
  /// through pool() until their last instruction — so every
  /// cross-thread edge the drain relies on comes from those joins. The
  /// relaxed flag only bounds *when* idle loops notice the drain, and every
  /// loop that polls it re-checks at least once per poll slice (100 ms) or
  /// keep-alive window, so visibility latency is already bounded by design.
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Requests currently inside the handler (a point-in-time gauge).
  [[nodiscard]] std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Connections rejected by the accept-level max_pending backstop.
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return accept_sheds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// The worker pool (for queue-depth / jobs-completed gauges).
  [[nodiscard]] const ThreadPool& pool() const noexcept { return *pool_; }

 private:
  void accept_loop();
  /// Answers a best-effort canned 429 and closes; max_pending backstop.
  void shed_connection(int fd);
  void serve_connection(int fd);
  /// One request-response exchange; returns false when the connection
  /// should close (EOF, error, Connection: close, or draining).
  bool serve_one(int fd, std::string& buffer);

  Options options_;
  HttpHandler handler_;
  std::mutex stop_mutex_;  // serializes concurrent stop() calls
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  // All five atomics below use relaxed ordering throughout: stopping_ is a
  // pure flag (see stopping() for why that is sufficient), and the other
  // four are monotonic gauges/counters written by atomic RMWs — exact
  // individually, never used to prove ordering between threads.
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> accept_sheds_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
};

/// Blocking test/bench client: one TCP connection, sequential requests,
/// transparent reconnect when the server closed the previous exchange.
class HttpClient {
 public:
  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issues one request and reads the full response. Throws
  /// std::runtime_error on connection or protocol errors.
  [[nodiscard]] HttpResponse request(const std::string& method, const std::string& target,
                                     const std::string& body = {},
                                     const std::string& content_type = "application/json");

  /// One-shot convenience: connect, request, disconnect.
  [[nodiscard]] static HttpResponse fetch(std::uint16_t port, const std::string& method,
                                          const std::string& target,
                                          const std::string& body = {});

 private:
  void connect_();
  std::uint16_t port_;
  int fd_ = -1;
};

}  // namespace saga::serve
