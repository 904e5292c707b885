#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

namespace diffc::net {

namespace {

// Classifies the error number `err` into the status code the retry layers
// key on. EINTR never reaches here — every syscall loop retries it — so by
// the time an error surfaces it is a real condition: a peer reset/abort or
// a refused, missing or unreachable endpoint is Unavailable (safe to retry
// on a fresh connection, matching the error frames the server sends before
// closing), a receive timeout from SO_RCVTIMEO is DeadlineExceeded, and
// anything else (EBADF, ENOMEM, ...) stays Internal so programming errors
// are not silently retried.
Status ErrnoStatus(int err, const std::string& what) {
  const std::string msg = what + ": " + std::strerror(err);
  if (err == ECONNRESET || err == ECONNABORTED || err == EPIPE || err == ECONNREFUSED ||
      err == ENOENT || err == EHOSTUNREACH || err == ENETUNREACH) {
    return Status::Unavailable(msg);
  }
  if (err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT) {
    return Status::DeadlineExceeded(msg);
  }
  return Status::Internal(msg);
}

// `ErrnoStatus` of the current errno.
Status Errno(const std::string& what) { return ErrnoStatus(errno, what); }

bool IsUnixAddress(const std::string& address) {
  return address.rfind("unix:", 0) == 0;
}

// Splits "host:port" at the last colon (host may be a name or IPv4
// literal). Returns InvalidArgument when there is no colon or the port is
// not numeric.
Status SplitHostPort(const std::string& address, std::string* host, std::string* port) {
  std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == address.size()) {
    return Status::InvalidArgument("address must be host:port or unix:/path, got '" +
                                   address + "'");
  }
  *host = address.substr(0, colon);
  *port = address.substr(colon + 1);
  for (char c : *port) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("non-numeric port in '" + address + "'");
    }
  }
  return Status::Ok();
}

Status FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path empty or too long: '" + path + "'");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownRead() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownBoth() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

namespace {

Status SetTimeoutOpt(int fd, int opt, std::chrono::milliseconds timeout) {
  if (fd < 0) return Status::FailedPrecondition("setsockopt on closed socket");
  if (timeout.count() < 0) timeout = std::chrono::milliseconds(0);  // 0 = no bound.
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(timeout)");
  }
  return Status::Ok();
}

}  // namespace

Status Socket::SetRecvTimeout(std::chrono::milliseconds timeout) const {
  return SetTimeoutOpt(fd_, SO_RCVTIMEO, timeout);
}

Status Socket::SetSendTimeout(std::chrono::milliseconds timeout) const {
  return SetTimeoutOpt(fd_, SO_SNDTIMEO, timeout);
}

Status Socket::SendAll(const void* data, std::size_t len) const {
  if (fd_ < 0) return Status::FailedPrecondition("send on closed socket");
  if (DIFFC_FAILPOINT("net/send-reset")) {
    return Status::Unavailable("failpoint: injected connection reset before send");
  }
  if (len > 1 && DIFFC_FAILPOINT("net/send-torn")) {
    // A torn write: deliver a prefix, then fail as a mid-write reset
    // would — the peer sees a truncated frame, the writer a dead
    // connection.
    const char* q = static_cast<const char*>(data);
    std::size_t left = len / 2;
    while (left > 0) {
      ssize_t n = ::send(fd_, q, left, MSG_NOSIGNAL);
      if (n <= 0) break;
      q += n;
      left -= static_cast<std::size_t>(n);
    }
    return Status::Unavailable("failpoint: torn write after " + std::to_string(len / 2 - left) +
                               " of " + std::to_string(len) + " bytes");
  }
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status Socket::RecvAll(void* data, std::size_t len, bool* clean_eof) const {
  auto give_up = std::chrono::steady_clock::time_point::max();
  return RecvAllStalled(data, len, clean_eof, std::chrono::milliseconds(0), &give_up);
}

Status Socket::RecvAllStalled(void* data, std::size_t len, bool* clean_eof,
                              std::chrono::milliseconds stall,
                              std::chrono::steady_clock::time_point* give_up) const {
  using Clock = std::chrono::steady_clock;
  *clean_eof = false;
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed socket");
  if (DIFFC_FAILPOINT("net/recv-reset")) {
    return Status::Unavailable("failpoint: injected connection reset before recv");
  }
  // Whether some earlier read already armed the stall deadline — then an
  // EOF here, even before this buffer's first byte, lands mid-frame and
  // must decode as truncation, not a clean close.
  const bool mid_frame = *give_up != Clock::time_point::max();
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    if (*give_up != Clock::time_point::max()) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          *give_up - Clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("peer stalled mid-frame beyond the stall budget");
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int pr = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return Errno("poll");
      }
      if (pr == 0) {
        return Status::DeadlineExceeded("peer stalled mid-frame beyond the stall budget");
      }
      // Readable (or hung up / errored): fall through to recv, which
      // reports the precise condition.
    }
    ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0 && !mid_frame) {
        *clean_eof = true;
        return Status::Ok();
      }
      return Status::InvalidArgument("truncated frame: peer closed mid-read after " +
                                     std::to_string(got) + " of " + std::to_string(len) +
                                     " bytes");
    }
    got += static_cast<std::size_t>(n);
    if (*give_up == Clock::time_point::max() && stall.count() > 0) {
      *give_up = Clock::now() + stall;
    }
  }
  return Status::Ok();
}

Result<std::size_t> Socket::RecvSome(void* data, std::size_t cap) const {
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed socket");
  while (true) {
    ssize_t n = ::recv(fd_, data, cap, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

namespace {

// Connects `fd` to `addr`, bounded by `timeout` when positive: the socket
// goes non-blocking, the in-progress connect is awaited with poll, and the
// outcome is read back from SO_ERROR — the only portable way to bound
// ::connect (there is no SO_CONNECTTIMEO). The socket is restored to
// blocking mode on success.
Status ConnectFd(int fd, const sockaddr* addr, socklen_t addrlen, const std::string& address,
                 std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    while (::connect(fd, addr, addrlen) != 0) {
      if (errno == EINTR) continue;
      return Errno("connect " + address);
    }
    return Status::Ok();
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  if (::connect(fd, addr, addrlen) != 0) {
    // EINTR here also means "in progress" (POSIX: the connection proceeds
    // asynchronously), so both wait below.
    if (errno != EINPROGRESS && errno != EINTR) return Errno("connect " + address);
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    int pr;
    do {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        pr = 0;
        break;
      }
      pr = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    } while (pr < 0 && errno == EINTR);
    if (pr < 0) return Errno("poll(connect " + address + ")");
    if (pr == 0) {
      return Status::DeadlineExceeded("connect " + address + " timed out after " +
                                      std::to_string(timeout.count()) + "ms");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) return ErrnoStatus(err, "connect " + address);
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) return Errno("fcntl(restore blocking)");
  return Status::Ok();
}

}  // namespace

Result<Socket> Connect(const std::string& address, std::chrono::milliseconds connect_timeout) {
  if (DIFFC_FAILPOINT("net/connect-fail")) {
    return Status::Unavailable("failpoint: injected connect failure to " + address);
  }
  if (IsUnixAddress(address)) {
    sockaddr_un addr;
    Status s = FillUnixAddr(address.substr(5), &addr);
    if (!s.ok()) return s;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    Status cs = ConnectFd(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), address,
                          connect_timeout);
    if (!cs.ok()) {
      ::close(fd);
      return cs;
    }
    return Socket(fd);
  }

  std::string host, port;
  Status s = SplitHostPort(address, &host, &port);
  if (!s.ok()) return s;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("cannot resolve '" + address + "': " + gai_strerror(gai));
  }
  Status last = Status::Internal("no addresses for '" + address + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    Status cs = ConnectFd(fd, ai->ai_addr, ai->ai_addrlen, address, connect_timeout);
    if (cs.ok()) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    last = std::move(cs);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      bound_address_(std::move(other.bound_address_)),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.unix_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    bound_address_ = std::move(other.bound_address_);
    unix_path_ = std::move(other.unix_path_);
    other.fd_ = -1;
    other.unix_path_.clear();
  }
  return *this;
}

Result<Listener> Listener::Bind(const std::string& address) {
  Listener listener;
  if (IsUnixAddress(address)) {
    const std::string path = address.substr(5);
    sockaddr_un addr;
    Status s = FillUnixAddr(path, &addr);
    if (!s.ok()) return s;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket(AF_UNIX)");
    ::unlink(path.c_str());  // Stale socket file from a crashed predecessor.
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status err = Errno("bind " + address);
      ::close(fd);
      return err;
    }
    if (::listen(fd, 64) != 0) {
      Status err = Errno("listen " + address);
      ::close(fd);
      return err;
    }
    listener.fd_ = fd;
    listener.bound_address_ = address;
    listener.unix_path_ = path;
    return listener;
  }

  std::string host, port;
  Status s = SplitHostPort(address, &host, &port);
  if (!s.ok()) return s;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("cannot resolve '" + address + "': " + gai_strerror(gai));
  }
  int fd = -1;
  Status last = Status::Internal("no addresses for '" + address + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0) break;
    last = Errno("bind/listen " + address);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return last;

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    Status err = Errno("getsockname");
    ::close(fd);
    return err;
  }
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
  listener.fd_ = fd;
  listener.bound_address_ = std::string(ip) + ":" + std::to_string(ntohs(bound.sin_port));
  return listener;
}

Result<Socket> Listener::Accept() const {
  if (fd_ < 0) return Status::Cancelled("listener closed");
  if (DIFFC_FAILPOINT("net/accept-fail")) {
    return Status::Unavailable("failpoint: injected accept failure");
  }
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // EINVAL / EBADF: Shutdown() or Close() preceded this Accept — the
    // orderly stop path, not an error worth surfacing loudly.
    if (errno == EBADF || errno == EINVAL) return Status::Cancelled("listener closed");
    return Errno("accept");
  }
}

void Listener::Shutdown() const {
  // close() alone does not unblock accept() on Linux; shutdown() does.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Status WriteFrame(const Socket& sock, const Frame& frame) {
  std::vector<std::uint8_t> bytes = SerializeFrame(frame);
  return sock.SendAll(bytes.data(), bytes.size());
}

Status ReadFrame(const Socket& sock, Frame* frame, bool* clean_eof,
                 std::chrono::milliseconds stall_budget) {
  *clean_eof = false;
  // One stall deadline spans the whole frame: armed by the header's first
  // byte, shared with the payload read below.
  auto give_up = std::chrono::steady_clock::time_point::max();
  std::uint8_t header[6];
  bool eof = false;
  Status s = sock.RecvAllStalled(header, sizeof(header), &eof, stall_budget, &give_up);
  if (!s.ok()) return s;
  if (eof) {
    *clean_eof = true;
    return Status::Ok();
  }
  FrameHeader head;
  s = DecodeFrameHeader(header, sizeof(header), &head);
  if (!s.ok()) return s;
  frame->type = head.type;
  frame->version = head.version;
  frame->payload.resize(head.payload_len);
  if (head.payload_len > 0) {
    s = sock.RecvAllStalled(frame->payload.data(), head.payload_len, &eof, stall_budget,
                            &give_up);
    if (!s.ok()) return s;
    if (eof) return Status::InvalidArgument("truncated frame: stream ended before payload");
  }
  return Status::Ok();
}

}  // namespace diffc::net
