#include "serve/line_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <system_error>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "serve/protocol.h"

namespace mivid {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, restarting on EINTR (worker supervision
/// delivers SIGCHLD to this process); false when the peer went away.
bool SendAll(int fd, const std::string& data) {
  // transport.write.short forces one byte per send() so the loop's
  // short-write handling is exercised end to end.
  const bool dribble = MIVID_FAULT("transport.write.short");
  size_t sent = 0;
  while (sent < data.size()) {
    const size_t chunk = dribble ? 1 : data.size() - sent;
    const ssize_t w = ::send(fd, data.data() + sent, chunk, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

LineTransport::LineTransport(LineTransportOptions options, Handler handler,
                             IdleHook idle_hook)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      idle_hook_(std::move(idle_hook)) {}

LineTransport::~LineTransport() { Stop(); }

Status LineTransport::StartUds() {
  sockaddr_un addr{};
  if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.uds_path);
  }
  uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (uds_fd_ < 0) return Errno("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.uds_path.c_str(),
              options_.uds_path.size() + 1);
  ::unlink(options_.uds_path.c_str());  // stale socket from a crash
  if (::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind " + options_.uds_path);
    ::close(uds_fd_);
    uds_fd_ = -1;
    return s;
  }
  if (::listen(uds_fd_, 64) < 0) {
    Status s = Errno("listen " + options_.uds_path);
    ::close(uds_fd_);
    uds_fd_ = -1;
    return s;
  }
  return Status::OK();
}

Status LineTransport::StartTcp() {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (tcp_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
  if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
    return Status::InvalidArgument("bad TCP bind address: " +
                                   options_.tcp_host);
  }
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind " + options_.tcp_host + ":" +
                     std::to_string(options_.tcp_port));
    ::close(tcp_fd_);
    tcp_fd_ = -1;
    return s;
  }
  if (::listen(tcp_fd_, 64) < 0) {
    Status s = Errno("listen tcp");
    ::close(tcp_fd_);
    tcp_fd_ = -1;
    return s;
  }
  // Resolve the kernel-assigned port so --tcp-port=0 callers can learn
  // where to connect.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_tcp_port_ = ntohs(bound.sin_port);
  }
  return Status::OK();
}

Status ValidateListeners(const std::string& uds_path, int tcp_port,
                         bool will_listen) {
  if (will_listen && uds_path.empty() && tcp_port < 0) {
    return Status::InvalidArgument(
        "no listener configured: set a socket path and/or --tcp-port");
  }
  if (tcp_port > 65535) {
    return Status::InvalidArgument("tcp_port out of range: " +
                                   std::to_string(tcp_port));
  }
  return Status::OK();
}

Status LineTransport::Start() {
  if (started_) return Status::FailedPrecondition("transport already started");
  MIVID_RETURN_IF_ERROR(
      ValidateListeners(options_.uds_path, options_.tcp_port));
  if (!options_.uds_path.empty()) MIVID_RETURN_IF_ERROR(StartUds());
  if (options_.tcp_port >= 0) {
    Status tcp = StartTcp();
    if (!tcp.ok()) {
      if (uds_fd_ >= 0) {
        ::close(uds_fd_);
        uds_fd_ = -1;
        ::unlink(options_.uds_path.c_str());
      }
      return tcp;
    }
  }
  started_ = true;
  accept_thread_ = std::thread(&LineTransport::AcceptLoop, this);
  return Status::OK();
}

void LineTransport::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfds[2];
    int nfds = 0;
    if (uds_fd_ >= 0) pfds[nfds++] = {uds_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int ready = ::poll(pfds, static_cast<nfds_t>(nfds),
                             options_.poll_ms);
    if (idle_hook_) idle_hook_();
    JoinFinished();
    if (ready <= 0) continue;
    for (int i = 0; i < nfds; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      Connection& conn = conns_.emplace_back();
      conn.fd = fd;
      try {
        conn.thread =
            std::thread(&LineTransport::ConnectionLoop, this, &conn);
      } catch (const std::system_error& e) {
        // Out of threads or address space: refuse this connection and
        // keep serving the open ones instead of terminating.
        MIVID_LOG(Warn) << "refusing a connection: " << e.what();
        conns_.pop_back();
        ::close(fd);
      }
    }
  }
}

void LineTransport::JoinFinished() {
  std::list<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      auto next = std::next(it);
      if (it->done) finished.splice(finished.end(), conns_, it);
      it = next;
    }
  }
  // A finished thread only has its close() left, so these joins are short.
  for (Connection& conn : finished) conn.thread.join();
}

void LineTransport::ConnectionLoop(Connection* conn) {
  const int fd = conn->fd;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    // transport.read.short shrinks each recv() to one byte so request
    // reassembly across arbitrarily fragmented reads stays exercised.
    const size_t want = MIVID_FAULT("transport.read.short") ? 1 : sizeof(chunk);
    const ssize_t n = ::recv(fd, chunk, want, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (Trim(line).empty()) continue;
      std::string response = handler_(line);
      response += '\n';
      if (!SendAll(fd, response)) open = false;
    }
    if (open && buffer.size() > kMaxRequestBytes) {
      // A line this long can never parse; answer once and hang up
      // rather than buffering an unbounded stream.
      SendAll(fd, ErrorResponse(Status::InvalidArgument(
                      "request line exceeds " +
                      std::to_string(kMaxRequestBytes) + " bytes")) +
                      "\n");
      open = false;
    }
  }
  // Mark done before closing so Stop() never shuts down a recycled fd.
  // After this the accept thread may unlink and join `conn`; touch it no
  // more.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn->done = true;
  }
  ::close(fd);
}

void LineTransport::Stop() {
  if (stopped_ || !started_) {
    stopped_ = true;
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const Connection& conn : conns_) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  // The accept thread is joined, so nothing adds to or unlinks from
  // conns_ any more.
  for (Connection& conn : conns_) conn.thread.join();
  conns_.clear();
  if (uds_fd_ >= 0) {
    ::close(uds_fd_);
    uds_fd_ = -1;
    ::unlink(options_.uds_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  stopped_ = true;
}

}  // namespace mivid
