#include "server/net_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gdim {

namespace {

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Result<sockaddr_in> MakeAddr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return addr;
}

/// Request/response lines are tiny; Nagle would hold a reply (or a
/// pipelined request) back until the peer's delayed ACK — tens of
/// milliseconds. Both ends of every connection turn it off.
void DisableNagle(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void ScopedFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<ScopedFd> ListenTcp(const std::string& host, int port,
                           int backlog, int* bound_port) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(ErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return Status::IoError(
        ErrnoMessage("bind " + host + ":" + std::to_string(port)));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Status::IoError(ErrnoMessage("listen"));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return Status::IoError(ErrnoMessage("getsockname"));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<ScopedFd> ConnectTcp(const std::string& host, int port) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(ErrnoMessage("socket"));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return Status::IoError(
        ErrnoMessage("connect " + host + ":" + std::to_string(port)));
  }
  DisableNagle(fd.get());
  return fd;
}

Result<ScopedFd> AcceptTcp(int listen_fd) {
  ScopedFd fd(::accept(listen_fd, nullptr, nullptr));
  if (!fd.valid()) return Status::IoError(ErrnoMessage("accept"));
  DisableNagle(fd.get());
  return fd;
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::optional<std::string>> LineReader::ReadLine() {
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      if (discarding_) {
        // End of the over-long line: drop through its terminator, report
        // it once, and leave the reader synchronized on the next line.
        buffer_.erase(0, newline + 1);
        discarding_ = false;
        return Status::InvalidArgument(
            "line exceeds " + std::to_string(max_line_bytes_) + " bytes");
      }
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return std::optional<std::string>(std::move(line));
    }
    // No newline buffered. Over the cap, switch to discard mode: the
    // buffer is dropped (bounded memory no matter how long the peer
    // streams) and bytes are swallowed until the line's '\n' arrives.
    if (discarding_) {
      buffer_.clear();
    } else if (buffer_.size() > max_line_bytes_) {
      discarding_ = true;
      buffer_.clear();
    }
    if (eof_) {
      if (discarding_) {
        // Over-long unterminated tail; after reporting it, clean EOF.
        discarding_ = false;
        return Status::InvalidArgument(
            "line exceeds " + std::to_string(max_line_bytes_) + " bytes");
      }
      // A final unterminated fragment counts as a line; after that, EOF.
      if (buffer_.empty()) return std::optional<std::string>();
      std::string line = std::move(buffer_);
      buffer_.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return std::optional<std::string>(std::move(line));
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("recv"));
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace gdim
