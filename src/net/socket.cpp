#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/sync.hpp"

namespace pprox::net {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Fd> tcp_listen(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error::internal("socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Error::internal(std::string("bind() failed: ") + std::strerror(errno));
  }
  if (::listen(fd.get(), 256) != 0) {
    return Error::internal("listen() failed");
  }
  return fd;
}

Result<std::uint16_t> local_port(const Fd& fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Error::internal("getsockname() failed");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<Fd> tcp_connect(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error::internal("socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Error::unavailable(std::string("connect() failed: ") + std::strerror(errno));
  }
  return fd;
}

Status set_nonblocking(const Fd& fd, bool enabled) {
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) return Error::internal("fcntl(F_GETFL) failed");
  flags = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd.get(), F_SETFL, flags) != 0) {
    return Error::internal("fcntl(F_SETFL) failed");
  }
  return Status::ok_status();
}

Status write_all(const Fd& fd, std::string_view data) {
  PPROX_ASSERT_HELD_LOCKS(0, "net::write_all while holding a lock");
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::send(fd.get(), data.data() + written, data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error::unavailable(std::string("send() failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::ok_status();
}

}  // namespace pprox::net
