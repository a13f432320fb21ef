#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace antdense::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to 127.0.0.1:" + std::to_string(port));
  }
  // Frames are written whole and latency-sensitive; never wait for more.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

bool Socket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return false;  // peer hung up: normal for a server, not an error
      }
      throw_errno("send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::recv_all(void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd_, p, size, 0);
    if (n == 0) {
      return false;  // EOF mid-read: a truncated frame or clean hangup
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) {
        return false;
      }
      throw_errno("recv");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_both() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw_errno("socket");
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

ListenSocket::~ListenSocket() { close(); }

Socket ListenSocket::accept_interruptible(int wake_fd, int* accept_error) {
  if (accept_error != nullptr) {
    *accept_error = 0;
  }
  while (fd_ >= 0) {
    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fd;
    fds[1].events = POLLIN;
    const int n = ::poll(fds, wake_fd >= 0 ? 2 : 1, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("poll");
    }
    if (wake_fd >= 0 && (fds[1].revents & (POLLIN | POLLHUP)) != 0) {
      return Socket();  // woken for shutdown
    }
    if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      return Socket();  // listener closed under us
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          continue;  // the connection died in the backlog; keep serving
        }
        if (accept_error != nullptr) {
          *accept_error = errno;
        }
        return Socket();
      }
      const int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(conn);
    }
  }
  return Socket();
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) {
    throw_errno("pipe");
  }
  // Non-blocking read end so drain() can empty the pipe without hanging;
  // the write end stays blocking-but-best-effort (see poke()).
  const int flags = ::fcntl(fds_[0], F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fds_[0], F_SETFL, flags | O_NONBLOCK);
  }
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) {
    ::close(fds_[0]);
  }
  if (fds_[1] >= 0) {
    ::close(fds_[1]);
  }
}

void WakePipe::poke() {
  const char byte = 1;
  // Best effort by design: if the pipe is full, the poller is already
  // guaranteed to wake.  write(2) is async-signal-safe, so poke() may be
  // called from a signal handler.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() {
  char buf[256];
  while (::read(fds_[0], buf, sizeof buf) > 0) {
  }
}

}  // namespace antdense::util
