#include "net/socket.hpp"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace are::net {

namespace {

std::string describe(const Address& address) {
  return address.path.empty() ? address.host + ":" + std::to_string(address.port) : address.path;
}

/// A stream socket listening on `address` when `port` is set (the bound
/// port goes there), else connected to it; throws std::runtime_error.
int open_socket(const Address& address, int* port) {
  union { sockaddr_un local; sockaddr_in inet; sockaddr any; } at{};  // local first: all zeroed
  socklen_t length = sizeof at.local;
  if (!address.path.empty()) {
    if (address.path.size() >= sizeof at.local.sun_path) {
      throw std::runtime_error("socket path too long: " + address.path);
    }
    at.local.sun_family = AF_UNIX;
    std::memcpy(at.local.sun_path, address.path.data(), address.path.size());
  } else {
    at.inet.sin_family = AF_INET;
    at.inet.sin_port = htons(static_cast<std::uint16_t>(address.port));
    if (address.port < 0 || address.port > 65535 ||
        ::inet_pton(AF_INET, address.host.c_str(), &at.inet.sin_addr) != 1) {
      throw std::runtime_error("bad IPv4 address " + describe(address));
    }
    length = sizeof at.inet;
  }
  const int fd = ::socket(at.any.sa_family, SOCK_STREAM, 0);
  bool ok = fd >= 0;
  if (ok && port != nullptr) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ok = ::bind(fd, &at.any, length) == 0 && ::listen(fd, 16) == 0 &&
         ::getsockname(fd, &at.any, &length) == 0;
  } else if (ok) {
    ok = ::connect(fd, &at.any, length) == 0;
  }
  if (!ok) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(std::string(port != nullptr ? "listen on " : "connect to ") +
                             describe(address) + ": " + reason);
  }
  if (port != nullptr && address.path.empty()) *port = ntohs(at.inet.sin_port);
  return fd;
}

}  // namespace

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

Line next_line(int fd, std::string& pending, std::string& line, std::size_t cap) {
  for (;;) {
    const std::size_t newline = pending.find('\n');
    if (newline != std::string::npos) {
      if (newline > cap) return Line::kOversize;
      line.assign(pending, 0, newline);
      pending.erase(0, newline + 1);
      return Line::kRead;
    }
    if (pending.size() > cap) return Line::kOversize;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Line::kEnd;
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

Listener::Listener(const Address& address, std::string busy_reply,
                   std::function<void(int fd)> handler)
    : busy_reply_(std::move(busy_reply)), handler_(std::move(handler)), unix_path_(address.path) {
  // Replace a socket a killed server left behind, and nothing else: a
  // mistyped --socket must not delete the file it names.
  struct stat status {};
  if (!unix_path_.empty() && ::lstat(unix_path_.c_str(), &status) == 0) {
    if (!S_ISSOCK(status.st_mode)) {
      throw std::runtime_error(unix_path_ + " exists and is not a socket");
    }
    ::unlink(unix_path_.c_str());
  }
  fd_ = open_socket(address, &port_);
}

Listener::~Listener() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (const int fd : open_) ::shutdown(fd, SHUT_RD);
  ended_.wait(lock, [this] { return open_.empty(); });
  ::close(fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Listener::accept_until(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) continue;
    const std::lock_guard<std::mutex> guard(mutex_);
    if (open_.size() < kMaxConnections) {
      open_.push_back(conn);
      try {
        // Detached, so no join ever waits on a thread that is still
        // exiting. Its last touch of this object is under the lock, before
        // the destructor's wait for an empty open_ can return.
        std::thread([this, conn] {
          handler_(conn);
          const std::lock_guard<std::mutex> guard(mutex_);
          ::close(conn);
          open_.erase(std::find(open_.begin(), open_.end(), conn));
          ended_.notify_all();
        }).detach();
        continue;
      } catch (const std::system_error&) {
        open_.pop_back();
      }
    }
    write_all(conn, busy_reply_);
    ::close(conn);
  }
}

std::string exchange(const Address& address, std::string_view request, bool until_newline) {
  const int fd = open_socket(address, nullptr);
  // A peer that hangs up before taking the whole request may still have
  // replied (a busy reply), so a failed send still reads.
  write_all(fd, request);
  std::string reply;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
    if (until_newline && std::memchr(buf, '\n', static_cast<std::size_t>(n)) != nullptr) break;
  }
  ::close(fd);
  return reply;
}

}  // namespace are::net
