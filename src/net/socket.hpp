#pragma once

// The one socket stack under the service's two listeners, the AF_UNIX quote
// socket (service/server) and the TCP scrape port (obs/metrics_server): a
// detached thread per connection, at most kMaxConnections of them, counted
// so the listener's destructor can wait for the last. There are no idle or
// write timeouts.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace are::net {

/// Connections one Listener serves at once.
inline constexpr std::size_t kMaxConnections = 64;

/// An AF_UNIX `path` when non-empty, else an IPv4 `host` and `port` (port 0
/// when listening: the kernel picks one, see Listener::port()).
struct Address {
  std::string path{};
  std::string host{};
  int port = 0;
};

/// Sends all of `data` with MSG_NOSIGNAL; false once the peer has gone away
/// (an EPIPE, never a SIGPIPE).
bool write_all(int fd, std::string_view data);

enum class Line { kRead, kEnd, kOversize };
/// Reads `fd` until `pending` holds a line, then moves it, newline excluded,
/// to `line`. kEnd: EOF came first; kOversize: over `cap` bytes came first.
Line next_line(int fd, std::string& pending, std::string& line, std::size_t cap);

/// A listening socket and the connections it is serving.
class Listener {
 public:
  /// Binds and listens, or throws std::runtime_error. At an AF_UNIX path a
  /// stale socket is replaced; any other file is refused and left as it is.
  /// `handler` serves one connection; the listener closes its fd after.
  Listener(const Address& address, std::string busy_reply, std::function<void(int fd)> handler);
  /// Half-closes open connections (SHUT_RD: a parked read sees EOF, a reply
  /// in flight still goes out), waits for them all to end, and removes an
  /// AF_UNIX path.
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound TCP port; 0 for an AF_UNIX path.
  int port() const noexcept { return port_; }
  /// Accepts until `stop` reads true, polling it every 200 ms. Each
  /// connection runs the handler on its own thread, started right after the
  /// accept; one past the bound, or whose thread cannot start, is sent the
  /// busy reply and closed.
  void accept_until(const std::atomic<bool>& stop);

 private:
  std::string busy_reply_;
  std::function<void(int fd)> handler_;
  std::string unix_path_;
  int fd_ = -1;
  int port_ = 0;
  std::mutex mutex_;
  std::condition_variable ended_;  ///< notified as each connection ends
  std::vector<int> open_;          ///< fds of running connections, under mutex_
};

/// Connects to `address`, sends `request`, and returns the reply up to EOF,
/// or through its first '\n' when `until_newline`. Throws
/// std::runtime_error when it cannot connect.
std::string exchange(const Address& address, std::string_view request, bool until_newline);

}  // namespace are::net
