// Tests for the one socket stack (src/net/socket.hpp), driven with an echo
// handler and no service:
//
//   - the connection past kMaxConnections gets the busy reply, and a slot
//     frees when a client closes;
//   - stop returns within 1 s with idle connections open;
//   - finished connection threads are reclaimed: 1000 sequential
//     connections leave /proc/self/maps about where it was;
//   - a line past the read cap reports oversize;
//   - a stale socket at the listen path is replaced, any other file is
//     refused and left as it is; a port outside 0..65535 is refused.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace {

using namespace are;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kEchoCap = 64;

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// A listener on an AF_UNIX path whose handler echoes each line back and
/// answers "oversize" to a line past kEchoCap; accepts on its own thread
/// until destroyed or stop() is called.
class EchoServer {
 public:
  explicit EchoServer(const std::string& stem) : path_(temp_path(stem)) {
    listener_.emplace(net::Address{.path = path_}, "busy\n", [](int fd) {
      std::string pending, line;
      net::Line read;
      while ((read = net::next_line(fd, pending, line, kEchoCap)) == net::Line::kRead &&
             net::write_all(fd, line + "\n")) {
      }
      if (read == net::Line::kOversize) net::write_all(fd, "oversize\n");
    });
    thread_ = std::thread([this] { listener_->accept_until(stop_); });
  }
  ~EchoServer() { stop(); }

  /// Stops accepting, then drains.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_.reset();
  }

  std::string call(const std::string& request) const {
    return net::exchange({.path = path_}, request, true);
  }

  /// A raw client connection with a 5 s receive timeout, or -1.
  int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    const timeval timeout{5, 0};
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) != 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

 private:
  std::string path_;
  std::atomic<bool> stop_{false};
  std::optional<net::Listener> listener_;
  std::thread thread_;
};

/// Sends `request` on a raw connection and reads one reply line.
std::string ask(int fd, const std::string& request) {
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return std::string();
  }
  std::string reply;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    reply += c;
    if (c == '\n') break;
  }
  return reply;
}

std::size_t maps_lines() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(std::count(std::istreambuf_iterator<char>(maps),
                                             std::istreambuf_iterator<char>(), '\n'));
}

TEST(Net, ConnectionPastTheBoundGetsTheBusyReplyAndASlotFreesOnClose) {
  EchoServer server("are_test_net_bound");
  std::vector<int> held;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    const int fd = server.connect();
    ASSERT_GE(fd, 0) << std::strerror(errno);
    held.push_back(fd);
    ASSERT_EQ(ask(fd, "hi\n"), "hi\n") << "connection " << i << " is served";
  }
  EXPECT_EQ(server.call("hi\n"), "busy\n");

  ::close(held.back());
  held.pop_back();
  // The closed connection's slot frees once its thread sees EOF.
  std::string reply;
  for (const auto deadline = Clock::now() + std::chrono::seconds(1);
       reply != "hi\n" && Clock::now() < deadline;) {
    reply = server.call("hi\n");
    if (reply != "hi\n") std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(reply, "hi\n");
  for (const int fd : held) ::close(fd);
}

TEST(Net, StopReturnsWithinOneSecondWithIdleConnectionsOpen) {
  EchoServer server("are_test_net_stop");
  std::vector<int> idle;
  for (int i = 0; i < 3; ++i) {
    const int fd = server.connect();
    ASSERT_GE(fd, 0) << std::strerror(errno);
    idle.push_back(fd);
  }
  // Accepted in order, so once a later connection is answered the idle
  // ones each have a thread parked in a read.
  ASSERT_EQ(server.call("hi\n"), "hi\n");

  const auto start = Clock::now();
  server.stop();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  char c = 0;
  for (const int fd : idle) {
    EXPECT_EQ(::read(fd, &c, 1), 0) << "drained connections are closed";
    ::close(fd);
  }
}

TEST(Net, FinishedConnectionThreadsAreReclaimed) {
  if (!std::ifstream("/proc/self/maps")) GTEST_SKIP() << "no /proc/self/maps";
  EchoServer server("are_test_net_reap");
  ASSERT_EQ(server.call("warm\n"), "warm\n");
  const std::size_t before = maps_lines();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(server.call("hi\n"), "hi\n") << i;
  const std::size_t after = maps_lines();
  EXPECT_LT(after, before + 100) << before << " -> " << after << " lines";
}

TEST(Net, LinePastTheCapReportsOversize) {
  EchoServer server("are_test_net_cap");
  EXPECT_EQ(server.call(std::string(kEchoCap, 'x') + "\n"), std::string(kEchoCap, 'x') + "\n");
  EXPECT_EQ(server.call(std::string(kEchoCap + 1, 'x') + "\n"), "oversize\n");
  EXPECT_EQ(server.call(std::string(4 * kEchoCap, 'x')), "oversize\n");
}

TEST(Net, ListenReplacesAStaleSocketAndRefusesAnyOtherFile) {
  const std::string path = temp_path("are_test_net_path");
  std::filesystem::remove(path);
  {
    // A socket file with no listener behind it, as a killed server leaves.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::is_socket(path));
  {
    const net::Listener listener({.path = path}, "busy\n", [](int) {});
    EXPECT_TRUE(std::filesystem::is_socket(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path)) << "the listener removes its socket";

  const std::string contents = "not a socket\n";
  std::ofstream(path) << contents;
  try {
    const net::Listener listener({.path = path}, "busy\n", [](int) {});
    ADD_FAILURE() << "listening over a regular file must fail";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("not a socket"), std::string::npos) << error.what();
  }
  std::ifstream in(path);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), contents);
  std::filesystem::remove(path);
}

TEST(Net, ListenRefusesABadIPv4HostOrPort) {
  for (const net::Address& address : {net::Address{.host = "127.0.0.1", .port = 70000},
                                      net::Address{.host = "127.0.0.1", .port = -1},
                                      net::Address{.host = "localhost", .port = 0}}) {
    EXPECT_THROW(net::Listener(address, "busy\n", [](int) {}), std::runtime_error)
        << address.host << ":" << address.port;
  }
}

}  // namespace
