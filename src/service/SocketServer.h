//===- service/SocketServer.h - Unix-socket transport ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local transport for `seldond`: a Unix domain stream socket carrying
/// the line-delimited protocol of service/Protocol.h. Each accepted
/// connection gets a reader thread that frames request lines, admits them
/// against the Service's in-flight gate, and executes them on the shared
/// ThreadPool; responses are written back on the connection in request
/// order (per connection), while separate connections proceed
/// concurrently. A `shutdown` request drains the server: the accept loop
/// wakes, in-flight requests finish, and run() returns.
///
/// SocketClient is the matching test-side helper: connect, send a line,
/// read a line.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_SOCKETSERVER_H
#define SELDON_SERVICE_SOCKETSERVER_H

#include <atomic>
#include <mutex>
#include <set>
#include <string>

namespace seldon {

class ThreadPool;

namespace service {

class Service;

/// Serves \p Svc over a Unix domain socket at \p SocketPath.
class SocketServer {
public:
  /// \p Pool executes admitted requests; borrowed, must outlive run().
  SocketServer(Service &Svc, ThreadPool &Pool, std::string SocketPath);
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Binds and listens. Returns false with a diagnostic in \p Error when
  /// the path is unusable (exists and is live, wrong permissions, too
  /// long for sockaddr_un).
  bool listen(std::string &Error);

  /// Accepts and serves connections until stop() is called or the
  /// Service starts shutting down. Blocks; returns the number of
  /// connections served.
  size_t run();

  /// Wakes the accept loop and begins draining. Safe from any thread and
  /// from signal-ish contexts (one write to an atomic plus a socket
  /// shutdown).
  void stop();

  const std::string &socketPath() const { return Path; }

private:
  void serveConnection(int Fd);

  Service &Svc;
  ThreadPool &Pool;
  std::string Path;
  /// Read by stop() from any thread while run() retires it, so atomic;
  /// lock-free keeps stop() async-signal-safe.
  std::atomic<int> ListenFd{-1};
  static_assert(std::atomic<int>::is_always_lock_free);
  std::atomic<bool> Stopping{false};
  std::atomic<size_t> Served{0};
  /// Live connection fds, so a drain can shut them down: a stop() with
  /// an idle client parked in recv() must not hang the join in run().
  std::mutex LiveMutex;
  std::set<int> LiveFds;
};

/// Minimal blocking client for tests and scripts: one connection, one
/// line out, one line back.
class SocketClient {
public:
  SocketClient() = default;
  ~SocketClient();

  SocketClient(const SocketClient &) = delete;
  SocketClient &operator=(const SocketClient &) = delete;

  /// Connects to the server socket at \p SocketPath.
  bool connect(const std::string &SocketPath, std::string &Error);

  /// Sends \p Line (a newline is appended).
  bool sendLine(const std::string &Line);

  /// Reads one newline-terminated response (newline stripped). False on
  /// EOF or error.
  bool recvLine(std::string &Out);

  /// sendLine + recvLine.
  bool roundTrip(const std::string &Line, std::string &Response);

  void close();

private:
  int Fd = -1;
  std::string Buffer;
  /// Buffer[0, Scanned) holds no newline.
  size_t Scanned = 0;
};

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_SOCKETSERVER_H
