#ifndef GDIM_SERVER_NET_SOCKET_H_
#define GDIM_SERVER_NET_SOCKET_H_

#include <optional>
#include <string>

#include "common/status.h"

namespace gdim {

/// RAII owner of a POSIX file descriptor (socket). Move-only; closes on
/// destruction. The minimal plumbing shared by the TCP server, the
/// load-generator client, and the network tests — no external networking
/// dependency, just <sys/socket.h>.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor (no-op if invalid).
  void reset();

 private:
  int fd_ = -1;
};

/// Opens a TCP listening socket bound to host:port (numeric IPv4 only;
/// port 0 asks the kernel for an ephemeral port). On success *bound_port
/// holds the actual port. SO_REUSEADDR is set so restarts do not trip over
/// TIME_WAIT.
Result<ScopedFd> ListenTcp(const std::string& host, int port, int backlog,
                           int* bound_port);

/// Connects to host:port (numeric IPv4 only). TCP_NODELAY is set.
Result<ScopedFd> ConnectTcp(const std::string& host, int port);

/// Accepts one connection on a listening socket; TCP_NODELAY is set, as on
/// the connecting side. IoError on failure (errno names the cause).
Result<ScopedFd> AcceptTcp(int listen_fd);

/// Writes all of data (handles short writes; suppresses SIGPIPE so a peer
/// hangup surfaces as a Status, not a process kill).
Status SendAll(int fd, const std::string& data);

/// Buffered line reader over a socket: splits the byte stream on '\n',
/// strips a trailing '\r'. Lines are capped (a peer streaming an unbounded
/// line cannot exhaust server memory): an over-long line is discarded in
/// bounded memory through its terminating '\n', reported once as a typed
/// InvalidArgument, and the reader stays usable — the server can answer
/// with an ERR line instead of dropping the connection without a reply.
class LineReader {
 public:
  /// fd is borrowed, not owned. max_line_bytes bounds one line.
  explicit LineReader(int fd, size_t max_line_bytes = 1 << 20)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// Next line without its terminator; std::nullopt on clean EOF.
  /// InvalidArgument for an over-long line (the reader has resynchronized
  /// past it; keep calling). IoError on socket errors — those end the
  /// stream.
  Result<std::optional<std::string>> ReadLine();

 private:
  int fd_;
  size_t max_line_bytes_;
  std::string buffer_;
  bool eof_ = false;
  /// Swallowing an over-long line until its '\n' (buffer kept empty).
  bool discarding_ = false;
};

}  // namespace gdim

#endif  // GDIM_SERVER_NET_SOCKET_H_
