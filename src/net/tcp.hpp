// Real-network transport: an epoll-based HTTP server (mirroring the paper's
// event-driven proxy server, §5) and a pooled blocking HTTP client channel.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/sync.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"

namespace pprox::net {

/// Single-threaded epoll HTTP/1.1 server. Incoming requests are handed to
/// the sink; the sink's completion callback may fire on any thread — the
/// response is routed back to the right connection, in request order, via an
/// eventfd wakeup. This mirrors the paper's server thread + routing table T.
class TcpServer {
 public:
  /// Binds 127.0.0.1:port (0 = pick an ephemeral port) and starts the loop.
  TcpServer(std::uint16_t port, RequestSink& sink);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Number of currently open client connections (for tests).
  std::size_t connection_count() const;

  void stop();

 private:
  struct Connection {
    Fd fd;
    http::HttpParser parser{http::HttpParser::Mode::kRequest};
    // Responses are serialized directly into out_buffer (no per-response
    // temporary); out_offset is the send cursor so partial writes do not
    // memmove the unsent tail on every send().
    std::string out_buffer;
    std::size_t out_offset = 0;
    // In-order response slots: HTTP/1.1 requires responses in request order.
    std::deque<std::optional<http::HttpResponse>> pending;
    std::uint64_t first_slot = 0;  // slot id of pending.front()
    std::uint64_t next_slot = 0;
    bool closing = false;

    std::size_t unsent() const { return out_buffer.size() - out_offset; }
  };

  void loop();
  void accept_new();
  // The per-request epoll path: everything between "bytes arrived" and
  // "response bytes queued".
  void on_readable(std::uint64_t conn_id);
  void on_writable(std::uint64_t conn_id);
  void flush_ready(std::uint64_t conn_id, Connection& conn);
  void drain_completions();
  void close_connection(std::uint64_t conn_id);
  void update_epoll(std::uint64_t conn_id, Connection& conn);

  Fd listen_fd_;
  Fd epoll_fd_;
  std::uint16_t port_ = 0;
  RequestSink* sink_;
  DetThread thread_;
  Atomic<bool> stopping_{false};

  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_conn_id_ = 1;
  mutable Mutex conn_count_mutex_;
  std::size_t conn_count_ = 0;

  struct Completion {
    std::uint64_t conn_id;
    std::uint64_t slot;
    http::HttpResponse response;
  };
  /// Completion routing state, shared with every in-flight RespondFn. The
  /// callbacks hold it via weak_ptr: a completion firing after the server
  /// is gone (a sink flushing parked requests during teardown, a slow
  /// worker thread) finds the queue expired and drops the response instead
  /// of writing into a destroyed server. The wake eventfd lives here so a
  /// late post never touches a closed descriptor either.
  struct CompletionQueue {
    Mutex mutex;
    std::vector<Completion> items;
    Fd wake_fd;  // eventfd
    void post(Completion completion);
  };
  std::shared_ptr<CompletionQueue> completions_ =
      std::make_shared<CompletionQueue>();
};

/// Client channel to 127.0.0.1:port backed by a small pool of worker
/// threads, each holding one persistent connection (blocking round trips).
/// A per-request deadline guards against hung upstreams: expiry yields a
/// 504 and drops the (now unusable) connection.
class TcpChannel final : public HttpChannel {
 public:
  explicit TcpChannel(std::uint16_t port, std::size_t pool_size = 4,
                      std::chrono::milliseconds request_timeout =
                          std::chrono::milliseconds(30'000));
  ~TcpChannel() override;

  void send(http::HttpRequest request, RespondFn done) override;

 private:
  struct Job {
    http::HttpRequest request;
    RespondFn done;
  };

  void worker_loop();
  /// One request/response over the persistent connection; reconnects once.
  /// `wire` is the worker's reusable serialization buffer (cleared here),
  /// so steady-state round trips do not allocate for the request bytes.
  http::HttpResponse round_trip(Fd& conn, const http::HttpRequest& request,
                                std::string& wire);

  std::uint16_t port_;
  std::chrono::milliseconds request_timeout_;
  Atomic<bool> stopping_{false};
  Mutex mutex_;
  CondVar cv_;
  std::deque<Job> jobs_;
  std::vector<DetThread> workers_;
};

}  // namespace pprox::net
