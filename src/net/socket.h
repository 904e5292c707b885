#ifndef DIFFC_NET_SOCKET_H_
#define DIFFC_NET_SOCKET_H_

#include <chrono>
#include <string>

#include "net/wire.h"
#include "util/status.h"

namespace diffc::net {

/// Thin RAII wrappers over POSIX stream sockets — the only place in the
/// tree that touches raw fds. Addresses are strings in one of two forms:
///
///   - `"host:port"`  — TCP (port 0 binds an ephemeral port; the bound
///     address, with the real port, is available from `Listener`);
///   - `"unix:/path"` — a Unix-domain socket at `/path`.
///
/// All operations are blocking; the server gives each connection its own
/// thread and unblocks reads at drain time via `ShutdownRead`.

/// A connected stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  /// Half-closes the read side: a peer or local thread blocked in
  /// `ReadFrame` wakes with EOF, while pending writes still flush — the
  /// drain primitive.
  void ShutdownRead() const;
  /// Full shutdown (both directions).
  void ShutdownBoth() const;

  /// Bounds every subsequent blocking recv (SO_RCVTIMEO): a recv that
  /// waits longer fails instead of blocking forever. Zero or negative
  /// clears the bound. The metrics endpoint sets this so a silent peer
  /// cannot pin its serving thread across a drain.
  Status SetRecvTimeout(std::chrono::milliseconds timeout) const;
  /// Bounds every subsequent blocking send (SO_SNDTIMEO), as above for
  /// peers that stop reading mid-reply.
  Status SetSendTimeout(std::chrono::milliseconds timeout) const;

  /// Writes all `len` bytes (retrying short writes / EINTR; SIGPIPE is
  /// suppressed). Errors are classified for the retry layers: a peer
  /// reset/abort/broken pipe is Unavailable, a send-timeout expiry is
  /// DeadlineExceeded, anything else (EBADF, ENOMEM, ...) is Internal.
  Status SendAll(const void* data, std::size_t len) const;

  /// Reads exactly `len` bytes. `*clean_eof` is set true (with OK
  /// returned) when the stream ends *before the first byte*; an EOF
  /// mid-buffer is an InvalidArgument ("truncated"), because a peer that
  /// quits mid-frame left the stream unparseable. EINTR and short reads
  /// are retried internally and never surface; a hard peer reset
  /// (ECONNRESET/ECONNABORTED) is Unavailable, distinct from both the
  /// truncation case and the DeadlineExceeded of a recv-timeout expiry.
  Status RecvAll(void* data, std::size_t len, bool* clean_eof) const;

  /// `RecvAll` with a watchdog: `*give_up` is the absolute stall deadline
  /// for the unit of work spanning this read (one wire frame). While
  /// `*give_up` is `time_point::max()` the read blocks indefinitely (an
  /// idle peer between frames is legitimate); the first byte received
  /// arms it to now + `stall` (when `stall` > 0), and every subsequent
  /// wait is bounded by what remains — a peer that goes silent mid-frame
  /// fails with DeadlineExceeded instead of pinning the reader forever.
  /// Pass the same `*give_up` through the header and payload reads of one
  /// frame so the budget covers the frame as a whole.
  Status RecvAllStalled(void* data, std::size_t len, bool* clean_eof,
                        std::chrono::milliseconds stall,
                        std::chrono::steady_clock::time_point* give_up) const;

  /// Reads up to `cap` bytes — whatever one `recv` returns. 0 means EOF.
  /// The incremental read the line-oriented HTTP metrics endpoint needs.
  Result<std::size_t> RecvSome(void* data, std::size_t cap) const;

 private:
  int fd_ = -1;
};

/// Connects to `address` (see the address forms above). A positive
/// `connect_timeout` bounds connection establishment (non-blocking
/// connect + poll: DeadlineExceeded on expiry) so an unreachable or
/// black-holed host cannot hang the caller; zero blocks indefinitely.
Result<Socket> Connect(const std::string& address,
                       std::chrono::milliseconds connect_timeout = std::chrono::milliseconds(0));

/// A listening socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on `address`.
  static Result<Listener> Bind(const std::string& address);

  bool valid() const { return fd_ >= 0; }

  /// The bound address, with the kernel-assigned port for TCP port 0.
  const std::string& bound_address() const { return bound_address_; }

  /// Blocks for the next connection. After `Shutdown` or `Close`, returns
  /// Cancelled.
  Result<Socket> Accept() const;

  /// Wakes every blocked `Accept` and fails later ones, keeping the fd:
  /// the thread-safe half of stopping a listener another thread accepts on.
  void Shutdown() const;

  /// Closes the listening socket; for a Unix listener, unlinks the socket
  /// path. Writes the fd, so it must not race an `Accept`: `Shutdown`,
  /// join the accepting thread, then `Close`.
  void Close();

 private:
  int fd_ = -1;
  std::string bound_address_;
  std::string unix_path_;  // Non-empty for Unix listeners; unlinked on Close.
};

/// Writes one frame (header + payload) to `sock`.
Status WriteFrame(const Socket& sock, const Frame& frame);

/// Reads one frame. Enforces the header contract before any allocation:
/// declared payload length capped at `kMaxFramePayload`, version byte must
/// match `kWireVersion`. `*clean_eof` true (with OK and an empty frame)
/// means the peer closed between frames; EOF inside a frame is
/// InvalidArgument. A positive `stall_budget` bounds the whole frame from
/// its first byte (see `RecvAllStalled`): DeadlineExceeded identifies a
/// peer stuck mid-frame, while waiting *between* frames stays unbounded.
Status ReadFrame(const Socket& sock, Frame* frame, bool* clean_eof,
                 std::chrono::milliseconds stall_budget = std::chrono::milliseconds(0));

}  // namespace diffc::net

#endif  // DIFFC_NET_SOCKET_H_
