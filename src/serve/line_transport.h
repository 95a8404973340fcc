// LineTransport: the socket layer shared by the mivid_serve daemon and
// the mivid_coord coordinator.
//
// Owns up to two listeners — a Unix-domain stream socket and a TCP
// socket (loopback by default) — and runs the accept/connection loops:
// one accept thread polling both listen fds, one thread per connection
// framing newline-delimited requests. The accept thread joins the
// threads of closed connections on each poll tick, so only live
// connections hold a thread. Every complete line is handed to the
// owner's handler, whose return string is written back as one response
// line. The transport is protocol-agnostic; RetrievalServer
// and Coordinator plug their HandleLine into it, so the worker and the
// coordinator share one tested socket path.
//
// Oversized-line defense: a connection that streams more than
// kMaxRequestBytes without a newline gets one error response and is
// closed — a misbehaving (or malicious) client cannot grow the framing
// buffer without bound.

#ifndef MIVID_SERVE_LINE_TRANSPORT_H_
#define MIVID_SERVE_LINE_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace mivid {

struct LineTransportOptions {
  std::string uds_path;               ///< "" = no Unix-domain listener
  std::string tcp_host = "127.0.0.1";  ///< TCP bind address
  int tcp_port = -1;  ///< <0 = no TCP listener; 0 = kernel-assigned port
  int poll_ms = 100;  ///< accept-loop poll period (idle-hook cadence)
};

class LineTransport {
 public:
  /// Returns one response line (no trailing newline) for one request
  /// line. Called from connection threads; must be thread-safe.
  using Handler = std::function<std::string(const std::string&)>;

  /// Runs on the accept thread once per poll tick (idle sweeps).
  using IdleHook = std::function<void()>;

  LineTransport(LineTransportOptions options, Handler handler,
                IdleHook idle_hook = nullptr);
  ~LineTransport();

  LineTransport(const LineTransport&) = delete;
  LineTransport& operator=(const LineTransport&) = delete;

  /// Binds the configured listeners and starts the accept thread.
  /// InvalidArgument when neither listener is configured.
  Status Start();

  /// Closes listeners and every connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// The TCP port actually bound (resolves port 0), or -1 when TCP is
  /// off or Start has not run.
  int tcp_port() const { return bound_tcp_port_; }

  bool started() const { return started_; }

 private:
  /// One accepted connection and the thread that serves it.
  struct Connection {
    int fd = -1;
    bool done = false;  ///< the loop ended; fd is closed or about to be
    std::thread thread;
  };

  Status StartUds();
  Status StartTcp();
  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  /// Joins the threads of connections that have closed.
  void JoinFinished();

  const LineTransportOptions options_;
  const Handler handler_;
  const IdleHook idle_hook_;

  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  bool started_ = false;

  std::thread accept_thread_;
  std::mutex conn_mu_;  ///< guards conns_ and each Connection::done
  std::list<Connection> conns_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< Stop() ran to completion
};

}  // namespace mivid

#endif  // MIVID_SERVE_LINE_TRANSPORT_H_
